// Package ldms reproduces the LDMS global monitoring the paper uses: a
// daemon sampling every router's tile counters (and optionally every NIC's
// ORB latency counters) at a fixed period across the whole system, giving
// the system-level congestion view of Section V.
package ldms

import (
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Sample is one global observation window (the delta between two
// consecutive daemon ticks).
type Sample struct {
	At     sim.Time
	Totals network.ClassTotals
	// RouterRatios holds each router's network-tile stalls-to-flits
	// ratio for this window (only when RecordRouterRatios is set).
	RouterRatios []float64
	// NICLatency holds each node's mean request-response latency for
	// this window in seconds (only when RecordNICLatency is set; NaNs
	// excluded, nodes with no tracked pairs omitted).
	NICLatency []float64
}

// Options configures what each tick records beyond class totals.
type Options struct {
	Period             sim.Time
	RecordRouterRatios bool
	RecordNICLatency   bool
	// Stream drops the per-window RouterRatios/NICLatency sample slices
	// and keeps only the daemon-level online aggregates, so a long
	// campaign's monitoring footprint stays bounded no matter how many
	// windows elapse. The pooled distributions remain available through
	// RouterRatioAgg and NICLatencyAgg, which are maintained in either
	// mode.
	Stream bool
}

// Daemon periodically samples a fabric's counters. Start spawns the
// sampler proc, which ticks once per period; Stop prevents further ticks
// (the proc finds it set when it next wakes, and returns).
type Daemon struct {
	fab     *network.Fabric
	opts    Options
	prev    *network.Counters
	prevAt  sim.Time
	samples []Sample
	stopped bool
	// Pooled online distributions across all windows. Ticks run on the
	// single-threaded event kernel, so the fold order (window by window,
	// router/node index within a window) is deterministic.
	routerAgg *stats.Agg
	nicAgg    *stats.Agg
}

// Start launches a daemon on fab's kernel.
func Start(fab *network.Fabric, opts Options) *Daemon {
	if opts.Period <= 0 {
		opts.Period = sim.Second // LDMS default on Theta: 1 minute; ours: 1s windows
	}
	d := &Daemon{fab: fab, opts: opts, prev: fab.Counters().Snapshot(), prevAt: fab.Kernel().Now()}
	if opts.RecordRouterRatios {
		d.routerAgg = stats.NewAgg()
	}
	if opts.RecordNICLatency {
		d.nicAgg = stats.NewAgg()
	}
	k := fab.Kernel()
	k.SpawnAt(k.Now()+opts.Period, func(p *sim.Proc) {
		for !d.stopped {
			d.tick()
			p.Sleep(opts.Period)
		}
	})
	return d
}

// tick records one window.
func (d *Daemon) tick() {
	now := d.fab.Kernel().Now()
	cur := d.fab.Counters().Snapshot()
	delta := cur.Sub(d.prev)
	s := Sample{At: now, Totals: delta.Aggregate(nil)}
	if d.opts.RecordRouterRatios {
		ratios := delta.RouterRatios()
		d.routerAgg.AddAll(ratios)
		if !d.opts.Stream {
			s.RouterRatios = ratios
		}
	}
	if d.opts.RecordNICLatency {
		topo := d.fab.Topology()
		for n := 0; n < topo.NumNodes(); n++ {
			if delta.ORBCount[n] > 0 {
				v := delta.MeanORBLatency(topology.NodeID(n)).Seconds()
				d.nicAgg.Add(v)
				if !d.opts.Stream {
					s.NICLatency = append(s.NICLatency, v)
				}
			}
		}
	}
	d.samples = append(d.samples, s)
	d.prev = cur
	d.prevAt = now
}

// Stop halts future sampling, records one final partial window, and
// drops the daemon's fabric reference. Every recorded Sample is already
// materialized (Snapshot and Sub deep-copy the counters), so a stopped
// daemon's results stay valid even after warm machine reuse rewinds and
// reruns the fabric underneath it — and any bug that ticks a stopped
// daemon fails loudly on the nil fabric instead of silently folding
// another run's counters into this run's samples.
func (d *Daemon) Stop() {
	if d.stopped {
		return
	}
	if d.fab.Kernel().Now() > d.prevAt {
		d.tick()
	}
	d.stopped = true
	d.fab = nil
	d.prev = nil
}

// Samples returns the recorded windows.
func (d *Daemon) Samples() []Sample { return d.samples }

// RouterRatioAgg returns the pooled per-router per-window ratio
// distribution across all windows (nil when RecordRouterRatios unset;
// *stats.Agg reads are nil-safe).
func (d *Daemon) RouterRatioAgg() *stats.Agg { return d.routerAgg }

// NICLatencyAgg returns the pooled per-NIC mean-latency distribution
// across all windows (nil when RecordNICLatency unset).
func (d *Daemon) NICLatencyAgg() *stats.Agg { return d.nicAgg }
