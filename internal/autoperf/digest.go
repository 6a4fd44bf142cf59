package autoperf

// Streaming-reduction digest: the fixed-size residue of a Report that
// campaign pipelines keep after the full Report (whose LocalTileRatios
// slices scale with router count) has been dropped. Built on the worker
// immediately after a run completes; everything the figure/table
// renderers need per-sample lives here, and anything that needs the
// per-tile ratio distributions (Fig. 6/11) folds them into stats.Agg
// accumulators while the Report is still in hand.

import (
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Reduced is the compact per-run digest. All time fields are integer
// sim.Time, so statistics derived from them are exact — no floating
// point enters until a consumer converts to seconds.
type Reduced struct {
	App   string
	Ranks int

	// MPITime and ComputeTime are summed across ranks (the Profile's
	// MPITime() and ComputeTime); their sum is the profile's TotalTime.
	MPITime     sim.Time
	ComputeTime sim.Time

	// CallTime holds per-MPI-call wallclock (the Fig. 5/8 breakdowns).
	CallTime map[string]sim.Time

	// LocalTiles carries the class-aggregated tile counters; the
	// per-tile ratio samples are deliberately absent (they are O(routers)
	// per run and are folded into campaign-level aggregates instead).
	LocalTiles network.ClassTotals
}

// Reduce builds the digest from a full report.
func (r *Report) Reduce() *Reduced {
	d := &Reduced{
		App:         r.App,
		Ranks:       r.Ranks,
		MPITime:     r.Profile.MPITime(),
		ComputeTime: r.Profile.ComputeTime,
		CallTime:    make(map[string]sim.Time, len(r.Profile.ByCall)),
		LocalTiles:  r.LocalTiles,
	}
	for name, s := range r.Profile.ByCall { //simlint:allow detrand map-to-map copy; the result is order-insensitive
		d.CallTime[name] = s.Time
	}
	return d
}

// MemBytes estimates the digest's retained footprint (struct, string,
// and map contents) for the service's retained-digest-bytes gauge. It is
// an accounting estimate, not a precise heap measurement.
func (d *Reduced) MemBytes() int {
	if d == nil {
		return 0
	}
	const structBase = 64 + 16*int(topology.NumTileClasses)
	b := structBase + len(d.App)
	for name := range d.CallTime { //simlint:allow detrand order-insensitive size sum
		// map entry: key header+bytes, value, bucket overhead
		b += 16 + len(name) + 8 + 16
	}
	return b
}
