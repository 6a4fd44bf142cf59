// Command dragonsim runs one application on a simulated dragonfly system
// and prints its runtime, AutoPerf profile, and routing statistics.
//
// Usage:
//
//	dragonsim [-machine theta-mini|cori-mini|theta|cori|test] [-app MILC]
//	          [-nodes 24] [-mode AD0|AD1|AD2|AD3|MIN|VAL]
//	          [-placement compact|dispersed] [-groups N]
//	          [-iters 10] [-scale 0.1] [-noise] [-seed 1]
//	          [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//
// -cpuprofile / -memprofile / -trace write pprof CPU and heap profiles and
// a runtime execution trace of the run (see internal/profiling).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/placement"
	"repro/internal/profiling"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

var profiles = profiling.Register(flag.CommandLine)

func main() {
	machine := flag.String("machine", "theta-mini", "machine: "+strings.Join(topology.Names(), ", "))
	appName := flag.String("app", "MILC", "application: "+strings.Join(apps.Names(), ", "))
	nodes := flag.Int("nodes", 24, "job size in nodes")
	modeStr := flag.String("mode", "AD0", "routing mode: AD0..AD3, MIN, VAL")
	place := flag.String("placement", "dispersed", "compact or dispersed")
	groups := flag.Int("groups", 0, "fragmented placement over ~N groups (overrides -placement)")
	iters := flag.Int("iters", 10, "application iterations")
	scale := flag.Float64("scale", 0.1, "message size scale (1.0 = paper sizes)")
	noise := flag.Bool("noise", false, "fill the rest of the machine with production noise")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	if err := profiles.Start(); err != nil {
		fatal(err)
	}
	defer stopProfiles()

	cfg, err := topology.ByName(*machine)
	if err != nil {
		fatal(err)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		fatal(err)
	}
	app, err := apps.ByName(*appName)
	if err != nil {
		fatal(err)
	}
	mode, err := parseMode(*modeStr)
	if err != nil {
		fatal(err)
	}
	policy := placement.Dispersed
	if *place == "compact" {
		policy = placement.Compact
	}
	spec := core.JobSpec{
		App:           app,
		Cfg:           apps.Config{Iterations: *iters, Scale: *scale, Seed: *seed},
		Nodes:         *nodes,
		Placement:     policy,
		ClusterGroups: *groups,
		Env:           mpi.UniformEnv(mode),
	}
	opts := core.RunOpts{Seed: *seed}
	if *noise {
		opts.Background = core.DefaultBackground()
		opts.Warmup = sim.Millisecond
	}
	start := time.Now()
	job, res, err := m.RunOne(spec, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("machine=%s app=%s nodes=%d mode=%s placement=%s groupsSpanned=%d\n",
		cfg.Name, job.App, *nodes, mode, *place, job.GroupsSpanned)
	fmt.Printf("runtime=%v (virtual)  wall=%.1fs  events=%d\n",
		job.Runtime, time.Since(start).Seconds(), res.EventsExecuted)
	fmt.Printf("event_digest=%016x\n", res.EventDigest)
	total := job.MinimalPkts + job.NonMinimalPkts
	if total > 0 {
		fmt.Printf("job packets: %d (%.1f%% non-minimal)  mean transit=%v\n",
			total, 100*float64(job.NonMinimalPkts)/float64(total), job.MeanTransit)
	}
	fmt.Println()
	fmt.Print(job.Report.String())
}

func parseMode(s string) (routing.Mode, error) {
	switch s {
	case "MIN":
		return routing.MinimalOnly, nil
	case "VAL":
		return routing.ValiantOnly, nil
	}
	return routing.ParseMode(s)
}

// stopProfiles flushes the profiles; fatal calls it explicitly, since
// deferred calls do not run past os.Exit.
func stopProfiles() {
	if err := profiles.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "dragonsim:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dragonsim:", err)
	stopProfiles()
	os.Exit(1)
}
