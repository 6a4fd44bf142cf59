// Package autoperf reproduces the AutoPerf instrumentation the paper uses:
// a lightweight PMPI-style profiler that reports, per application run, the
// number of calls / bytes / wallclock per MPI interface, plus the Aries
// router-tile counters of the routers the application's nodes are directly
// connected to (the "local view" described in Section III-B).
package autoperf

import (
	"fmt"
	"strings"
	"unsafe"

	"repro/internal/mpi"
	"repro/internal/network"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Collector snapshots counters at attach time; Finish produces a Report
// with the deltas, mirroring AutoPerf's begin/end capture around a run.
type Collector struct {
	fab     *network.Fabric
	routers []topology.RouterID
	start   *network.Counters
	startAt sim.Time
}

// Attach starts collection for an application occupying nodes.
func Attach(fab *network.Fabric, nodes []topology.NodeID) *Collector {
	return &Collector{
		fab:     fab,
		routers: placement.RoutersOf(fab.Topology(), nodes),
		start:   fab.Counters().Snapshot(),
		startAt: fab.Kernel().Now(),
	}
}

// Report is one application's AutoPerf output, and the one per-run record
// campaigns keep: every field but LocalTileRatios is fixed-size, and a
// retained sample drops those slices (see experiments.Sample.Compact).
// Times are integer sim.Time, so seconds derived from them are exact.
type Report struct {
	App     string
	Ranks   int
	Runtime sim.Time

	// Profile aggregates MPI usage across all ranks.
	Profile *mpi.Profile

	// LocalTiles aggregates the tile counters of the routers the
	// application is directly connected to, over the run window.
	LocalTiles network.ClassTotals

	// LocalTileRatios gives per-tile stalls-to-flits samples by class
	// over the same routers (the paper's Fig. 6 boxes). They scale with
	// router count.
	LocalTileRatios [topology.NumTileClasses][]float64
}

// Finish captures the end snapshot and builds the report. The world must
// have completed.
func (c *Collector) Finish(app string, w *mpi.World) *Report {
	delta := c.fab.Counters().Sub(c.start)
	r := &Report{
		App:        app,
		Ranks:      w.Size(),
		Runtime:    c.fab.Kernel().Now() - c.startAt,
		Profile:    w.AggregateProfile(),
		LocalTiles: delta.Aggregate(c.routers),
	}
	for class := range r.LocalTileRatios {
		r.LocalTileRatios[class] = delta.TileRatios(c.routers, topology.TileClass(class))
	}
	return r
}

// MemBytes estimates the report's retained footprint (struct, profile,
// app name and any tile-ratio samples still attached) for the service's
// retained-record gauge. It is an accounting estimate, not a precise heap
// measurement.
func (r *Report) MemBytes() int {
	b := int(unsafe.Sizeof(*r)+unsafe.Sizeof(*r.Profile)) + len(r.App)
	for _, ratios := range r.LocalTileRatios {
		b += 8 * cap(ratios)
	}
	return b
}

// MPIFraction returns the share of total runtime spent in MPI, summed over
// ranks (the paper's "% of MPI in total time" column).
func (r *Report) MPIFraction() float64 {
	total := r.Profile.TotalTime()
	if total == 0 {
		return 0
	}
	return float64(r.Profile.MPITime()) / float64(total)
}

// String renders the report in AutoPerf's tabular spirit.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AutoPerf report: %s ranks=%d runtime=%v mpi=%.0f%%\n",
		r.App, r.Ranks, r.Runtime, 100*r.MPIFraction())
	for _, c := range r.Profile.TopCalls(0) {
		s := r.Profile.ByCall[c]
		fmt.Fprintf(&b, "  %-16s calls=%-8d avgBytes=%-10.0f time=%v\n",
			c, s.Calls, s.AvgBytes(), s.Time)
	}
	for class := topology.TileClass(0); class < topology.NumTileClasses; class++ {
		fmt.Fprintf(&b, "  tiles[%-8s] flits=%-12d stalls=%-14.0f ratio=%.3f\n",
			class, r.LocalTiles.Flits[class], r.LocalTiles.Stalls[class],
			r.LocalTiles.Ratio(class))
	}
	return b.String()
}
