// Congestion monitor: run a production campaign while an LDMS-style
// daemon samples every router's counters, then print the system-wide
// congestion time series — the global view the paper uses in Section V to
// justify changing the facility default.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ldms"
	"repro/internal/mpi"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

func main() {
	modeStr := flag.String("mode", "AD0", "system default routing mode")
	window := flag.Float64("window", 0.03, "campaign length, virtual seconds")
	flag.Parse()

	mode, err := routing.ParseMode(*modeStr)
	if err != nil {
		log.Fatal(err)
	}
	machine, err := core.NewMachine(topology.ThetaMiniConfig())
	if err != nil {
		log.Fatal(err)
	}

	bg := core.DefaultBackground()
	bg.Env = mpi.UniformEnv(mode) // every job uses the system default
	campaign, err := machine.RunCampaign(
		sim.FromSeconds(*window), *bg,
		ldms.Options{
			Period:             5 * sim.Millisecond,
			RecordRouterRatios: true,
			RecordNICLatency:   true,
		}, 7)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("system default %s, %v campaign\n\n", mode, sim.FromSeconds(*window))
	fmt.Printf("%-10s %-14s %-14s %-8s %-10s\n", "t", "netFlits", "netStalls", "ratio", "p99 lat")
	for _, s := range campaign.LDMS.Samples() {
		var flits uint64
		var stalls float64
		for _, class := range topology.NetworkTileClasses {
			flits += s.Totals.Flits[class]
			stalls += s.Totals.Stalls[class]
		}
		ratio := 0.0
		if flits > 0 {
			ratio = stalls / float64(flits)
		}
		p99 := stats.Percentile(s.NICLatency, 99) * 1e6
		fmt.Printf("%-10v %-14d %-14.0f %-8.3f %8.1fus\n", s.At, flits, stalls, ratio, p99)
	}
	fmt.Printf("\noverall network stalls-to-flits: %.3f\n",
		campaign.Global.TotalStalls()/float64(campaign.Global.TotalFlits()))
}
