// Command calibrate is the model-tuning workbench used while fitting the
// simulator to the paper's observables: it runs one application under the
// pure MIN/VAL baselines and the AD0/AD3 presets on a noisy machine and
// prints paired-seed runtimes, per-call time decompositions, per-class
// counter ratios, and the job's non-minimal packet share. The flags sweep
// the model knobs (noise intensity, buffer depth, message scale).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/placement"
	"repro/internal/profiling"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

var profiles = profiling.Register(flag.CommandLine)

func main() {
	appName := flag.String("app", "MILC", "app to run")
	runs := flag.Int("runs", 6, "runs per mode")
	iters := flag.Int("iters", 10, "app iterations")
	scale := flag.Float64("scale", 0.25, "message scale")
	nodes := flag.Int("nodes", 24, "job nodes")
	util := flag.Float64("util", 0.75, "background utilization")
	gapmul := flag.Float64("gapmul", 1.0, "multiply noise gaps (smaller=more intense)")
	uniformNoise := flag.Bool("uniformnoise", false, "background is uniform-random only")
	buffer := flag.Int("buffer", 0, "override BufferFlits")
	flag.Parse()

	if err := profiles.Start(); err != nil {
		fatal(err)
	}
	defer stopProfiles()

	m, err := core.NewMachine(topology.ThetaMiniConfig())
	if err != nil {
		fatal(err)
	}
	if *buffer > 0 {
		m.Net.BufferFlits = *buffer
	}
	app, err := apps.ByName(*appName)
	if err != nil {
		fatal(err)
	}
	for _, mode := range []routing.Mode{routing.MinimalOnly, routing.ValiantOnly, routing.AD0, routing.AD3} {
		var runtimes, ratio []float64
		t0 := time.Now()
		var events uint64
		var callTime [mpi.NumCalls]float64
		var called [mpi.NumCalls]bool
		compute := 0.0
		for run := 0; run < *runs; run++ {
			spec := core.JobSpec{
				App:       app,
				Cfg:       apps.Config{Iterations: *iters, Scale: *scale, Seed: int64(run + 1)},
				Nodes:     *nodes,
				Placement: placement.Dispersed,
				Env:       mpi.UniformEnv(mode),
			}
			bg := core.DefaultBackground()
			bg.TargetUtilization = *util
			if *uniformNoise {
				bg.Classes = []workload.TrafficClass{
					{Pattern: apps.NoiseUniform, MsgBytes: 128 * 1024, Gap: 300 * sim.Microsecond, Weight: 1},
				}
			}
			for i := range bg.Classes {
				bg.Classes[i].Gap = sim.Time(float64(bg.Classes[i].Gap) * *gapmul)
			}
			job, res, err := m.RunOne(spec, core.RunOpts{
				Seed:       int64(run + 1),
				Background: bg,
				Warmup:     1 * sim.Millisecond,
			})
			if err != nil {
				fatal(err)
			}
			runtimes = append(runtimes, job.Runtime.Seconds())
			lt := job.Report.LocalTiles
			ratio = append(ratio, lt.TotalStalls()/float64(lt.TotalFlits()))
			events += res.EventsExecuted
			if run == 0 {
				fmt.Printf("    transit min=%.2fus (n=%dk) nonmin=%.2fus (n=%dk)\n",
					res.MinTransitUS, res.MinCountK, res.NonMinTransitUS, res.NonMinCountK)
				g := res.Global
				for c := topology.TileClass(0); c < topology.NumTileClasses; c++ {
					fmt.Printf("    %-9s flits=%-12d ratio=%.3f\n", c, g.Flits[c], g.Ratio(c))
				}
			}
			prof := job.Report.Profile
			for c, st := range prof.ByCall {
				if st.Calls > 0 {
					called[c] = true
					callTime[c] += st.Time.Seconds() / float64(job.Report.Ranks)
				}
			}
			compute += prof.ComputeTime.Seconds() / float64(job.Report.Ranks)
			nonMinPct := 0.0
			if total := job.MinimalPkts + job.NonMinimalPkts; total > 0 {
				nonMinPct = 100 * float64(job.NonMinimalPkts) / float64(total)
			}
			fmt.Printf("  seed=%d mode=%s runtime=%.4fs nonmin=%.1f%% transit=%.2fus\n", run+1, mode,
				job.Runtime.Seconds(), nonMinPct, job.MeanTransit.Seconds()*1e6)
		}
		mean, std := stats.MeanStd(runtimes)
		fmt.Printf("%-6s %s mean=%.4fs std=%.4fs stall/flit=%.3f wall=%.1fs events=%dM\n",
			*appName, mode, mean, std, stats.Mean(ratio), time.Since(t0).Seconds(), events/1e6)
		fmt.Printf("    compute=%.4f", compute/float64(*runs))
		for _, c := range []mpi.Call{mpi.Allreduce, mpi.Waitall, mpi.Wait, mpi.Isend, mpi.Alltoallv, mpi.Recv, mpi.Barrier} {
			if called[c] {
				fmt.Printf(" %s=%.4f", c.Short(), callTime[c]/float64(*runs))
			}
		}
		fmt.Println()
	}
}

// stopProfiles flushes the profiles; fatal calls it explicitly, since
// deferred calls do not run past os.Exit.
func stopProfiles() {
	if err := profiles.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "calibrate:", err)
	stopProfiles()
	os.Exit(1)
}
