package network

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// Counters holds the Aries-style per-router-tile hardware counters: flit
// counts and stall counts per tile, plus per-NIC ORB (outstanding request
// buffer) latency-tracking counters. These mirror the counters the paper
// reads via AutoPerf (local, per-application) and LDMS (global, periodic):
// r.AR_RTR_*_STALLED/FLITS and the two AR_NIC_*RSP_TRACK counters used for
// Fig. 14's packet-pair latencies.
//
// Sample-point contract: every external reader takes these through
// Fabric.Counters(), which settles any fused-hop completions that are
// overdue (Params.FuseLinks defers the sender-side flit count to the
// fused event, but backdates it on settle) — so at any sampling instant
// the tile counters read identically under the fused and split models.
type Counters struct {
	topo *topology.Topology //simlint:resetsafe immutable topology these counters describe

	// Flits[r][t] counts flits transmitted by tile t of router r.
	Flits [][]uint64 //simlint:resetsafe row views into flits, which Reset clears
	// Stalls[r][t] accumulates stalled flit-cycles on tile t of router r:
	// time the tile had a flit ready but could not transmit, converted to
	// flit periods at the tile's line rate.
	Stalls [][]float64 //simlint:resetsafe row views into stalls, which Reset clears
	// flits and stalls are the flat backing slabs the Flits and Stalls
	// rows are carved from: tile t of router r is element
	// r*TilesPerRouter()+t. The fabric's per-hop writes index them
	// directly through each server's precomputed counter index.
	flits  []uint64
	stalls []float64

	// ORBTimeSum[n] accumulates request->response round-trip time for
	// node n's NIC; ORBCount[n] counts tracked pairs. Their quotient is
	// the NIC's mean packet-pair latency, exactly as the paper computes
	// from AR_NIC_ORB_PRF_NET_RSP_TRACK2 / AR_NIC_NETMON_ORB_EVENT_CNTR.
	ORBTimeSum []sim.Time
	ORBCount   []uint64
}

// NewCounters allocates zeroed counters for topo.
func NewCounters(topo *topology.Topology) *Counters {
	nr := topo.NumRouters()
	tiles := topo.TilesPerRouter()
	c := &Counters{
		topo:       topo,
		Flits:      make([][]uint64, nr),
		Stalls:     make([][]float64, nr),
		flits:      make([]uint64, nr*tiles),
		stalls:     make([]float64, nr*tiles),
		ORBTimeSum: make([]sim.Time, topo.Cfg.Capacity()),
		ORBCount:   make([]uint64, topo.Cfg.Capacity()),
	}
	for r := 0; r < nr; r++ {
		c.Flits[r] = c.flits[r*tiles : (r+1)*tiles : (r+1)*tiles]
		c.Stalls[r] = c.stalls[r*tiles : (r+1)*tiles : (r+1)*tiles]
	}
	return c
}

// Snapshot deep-copies the current counter state.
func (c *Counters) Snapshot() *Counters {
	s := NewCounters(c.topo)
	copy(s.flits, c.flits)
	copy(s.stalls, c.stalls)
	copy(s.ORBTimeSum, c.ORBTimeSum)
	copy(s.ORBCount, c.ORBCount)
	return s
}

// Sub subtracts an earlier snapshot, returning the delta (c - earlier).
func (c *Counters) Sub(earlier *Counters) *Counters {
	d := NewCounters(c.topo)
	for i := range c.flits {
		d.flits[i] = c.flits[i] - earlier.flits[i]
		d.stalls[i] = c.stalls[i] - earlier.stalls[i]
	}
	for n := range c.ORBTimeSum {
		d.ORBTimeSum[n] = c.ORBTimeSum[n] - earlier.ORBTimeSum[n]
		d.ORBCount[n] = c.ORBCount[n] - earlier.ORBCount[n]
	}
	return d
}

// ClassTotals aggregates flits and stalls per tile class across a set of
// routers (all routers when routers is nil).
type ClassTotals struct {
	Flits  [topology.NumTileClasses]uint64
	Stalls [topology.NumTileClasses]float64
}

// Ratio returns stalls-to-flits for one class (0 when no flits).
func (ct ClassTotals) Ratio(class topology.TileClass) float64 {
	if ct.Flits[class] == 0 {
		return 0
	}
	return ct.Stalls[class] / float64(ct.Flits[class])
}

// TotalFlits sums flits over all classes.
func (ct ClassTotals) TotalFlits() uint64 {
	var s uint64
	for _, v := range ct.Flits {
		s += v
	}
	return s
}

// TotalStalls sums stalls over all classes.
func (ct ClassTotals) TotalStalls() float64 {
	var s float64
	for _, v := range ct.Stalls {
		s += v
	}
	return s
}

// eachRouter calls f for each of the given routers in order, or for
// every router when routers is nil: the router-subset convention of the
// readers below.
func (c *Counters) eachRouter(routers []topology.RouterID, f func(r int)) {
	if routers == nil {
		for r := range c.Flits {
			f(r)
		}
		return
	}
	for _, r := range routers {
		f(int(r))
	}
}

// Aggregate computes ClassTotals over the given routers (nil = all).
func (c *Counters) Aggregate(routers []topology.RouterID) ClassTotals {
	var ct ClassTotals
	c.eachRouter(routers, func(r int) {
		for t := range c.Flits[r] {
			class := c.topo.TileClassOf(t)
			ct.Flits[class] += c.Flits[r][t]
			ct.Stalls[class] += c.Stalls[r][t]
		}
	})
	return ct
}

// RouterRatios returns the stalls-to-flits ratio over network tiles only
// (rank-1/2/3) of every router that carried network traffic, in router
// order: the quantity plotted in the paper's Fig. 11.
func (c *Counters) RouterRatios() []float64 {
	routers := c.Flits
	out := make([]float64, 0, len(routers))
	for r, tiles := range routers {
		var flits uint64
		var stalls float64
		for t, n := range tiles {
			switch c.topo.TileClassOf(t) {
			case topology.TileRank1, topology.TileRank2, topology.TileRank3:
				flits += n
				stalls += c.Stalls[r][t]
			}
		}
		if flits > 0 {
			out = append(out, stalls/float64(flits))
		}
	}
	return out
}

// TileRatios returns the per-tile stalls-to-flits ratio for every tile of
// the given class with nonzero flits, over the given routers in order
// (nil = all routers).
func (c *Counters) TileRatios(routers []topology.RouterID, class topology.TileClass) []float64 {
	var out []float64
	c.eachRouter(routers, func(r int) {
		for t := range c.Flits[r] {
			if c.topo.TileClassOf(t) != class {
				continue
			}
			if f := c.Flits[r][t]; f > 0 {
				out = append(out, c.Stalls[r][t]/float64(f))
			}
		}
	})
	return out
}

// MeanORBLatency returns node n's mean request->response latency, or 0
// when no pairs were tracked.
func (c *Counters) MeanORBLatency(n topology.NodeID) sim.Time {
	if c.ORBCount[n] == 0 {
		return 0
	}
	return c.ORBTimeSum[n] / sim.Time(c.ORBCount[n])
}
