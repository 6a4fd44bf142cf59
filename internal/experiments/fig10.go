package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
)

// EnsembleCounters summarizes the global tile-counter picture of one
// controlled ensemble (the per-tile-class panels of the paper's Figs. 10
// and 12).
type EnsembleCounters struct {
	Mode        routing.Mode
	MeanRuntime float64
	Totals      network.ClassTotals
	// PeakRank3Stalls is the largest per-tile stall count among rank-3
	// tiles — the localized hot-spot metric from Fig. 12.
	PeakRank3Stalls float64
	// RouterRatioP50/P95 summarize the distribution of per-router
	// stalls-to-flits ratios.
	RouterRatioP50, RouterRatioP95 float64
}

// Fig10Result holds both modes' ensemble counter pictures.
type Fig10Result struct {
	App     string
	Figure  string
	Jobs    int
	Nodes   int
	PerMode map[routing.Mode]EnsembleCounters
}

// Fig10MILCEnsembleCounters reproduces the paper's Fig. 10: an ensemble of
// large MILC jobs filling the machine, run under AD0 and then AD3, with
// the whole-system stalls/flits/ratio compared per tile class.
func Fig10MILCEnsembleCounters(p Profile, seed int64) (*Fig10Result, error) {
	return ensembleCounterStudy(p, apps.MILC{}, "Fig. 10", p.EnsembleLarge, p.NodesLarge, seed)
}

// Fig12HACCEnsembleCounters reproduces the paper's Fig. 12: the HACC
// ensemble, where strong minimal bias concentrates load on a subset of
// rank-3 links (peak stalls) and increases total flits via backpressure.
func Fig12HACCEnsembleCounters(p Profile, seed int64) (*Fig10Result, error) {
	return ensembleCounterStudy(p, apps.HACC{}, "Fig. 12", p.EnsembleMedium, p.NodesMedium, seed)
}

func ensembleCounterStudy(p Profile, a apps.App, figure string, count, nodes int, seed int64) (*Fig10Result, error) {
	ms, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{
		App: a.Name(), Figure: figure, Jobs: count, Nodes: nodes,
		PerMode: map[routing.Mode]EnsembleCounters{},
	}
	modes := []routing.Mode{routing.AD0, routing.AD3}
	// The two modes' ensembles are independent whole-machine runs; fan
	// them out, summarize each run on its worker, and store the summaries
	// in mode order.
	err = parallel.ReduceContext(context.Background(), len(ms), len(modes),
		func(worker, idx int) (EnsembleCounters, error) {
			m := ms[worker]
			run, err := ensembleRun(m, p, a, count, nodes, modes[idx], placement.Dispersed, seed)
			if err != nil {
				return EnsembleCounters{}, err
			}
			return ensembleCounters(m.Topo, modes[idx], run), nil
		},
		func(idx int, ec EnsembleCounters) { res.PerMode[modes[idx]] = ec })
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ensembleCounters summarizes one ensemble run's global counters.
func ensembleCounters(topo *topology.Topology, mode routing.Mode, run *core.RunResult) EnsembleCounters {
	mean := 0.0
	for _, j := range run.Jobs {
		mean += j.Runtime.Seconds()
	}
	mean /= float64(len(run.Jobs))
	ec := EnsembleCounters{Mode: mode, MeanRuntime: mean, Totals: run.Global}
	// Peak rank-3 per-tile stalls (hot-spot localization).
	c := run.GlobalCounters
	for r := range c.Stalls {
		for t := range c.Stalls[r] {
			if topo.TileClassOf(t) == topology.TileRank3 && c.Stalls[r][t] > ec.PeakRank3Stalls {
				ec.PeakRank3Stalls = c.Stalls[r][t]
			}
		}
	}
	ratios := c.RouterRatios()
	ps := stats.Percentiles(ratios, []float64{50, 95})
	ec.RouterRatioP50, ec.RouterRatioP95 = ps[0], ps[1]
	return ec
}

// Render prints the per-class counters for both modes side by side.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %d x %d-node %s ensemble, global counters, AD0 vs AD3\n",
		r.Figure, r.Jobs, r.Nodes, r.App)
	a0, a3 := r.PerMode[routing.AD0], r.PerMode[routing.AD3]
	fmt.Fprintf(&b, "mean job runtime: AD0 %.4fs, AD3 %.4fs\n", a0.MeanRuntime, a3.MeanRuntime)
	fmt.Fprintf(&b, "%-10s %-14s %-14s %-9s | %-14s %-14s %-9s\n",
		"tile", "AD0 flits", "AD0 stalls", "ratio", "AD3 flits", "AD3 stalls", "ratio")
	for class := topology.TileClass(0); class < topology.NumTileClasses; class++ {
		fmt.Fprintf(&b, "%-10s %-14d %-14.0f %-9.3f | %-14d %-14.0f %-9.3f\n",
			class,
			a0.Totals.Flits[class], a0.Totals.Stalls[class], a0.Totals.Ratio(class),
			a3.Totals.Flits[class], a3.Totals.Stalls[class], a3.Totals.Ratio(class))
	}
	fmt.Fprintf(&b, "peak rank-3 tile stalls: AD0 %.0f, AD3 %.0f\n", a0.PeakRank3Stalls, a3.PeakRank3Stalls)
	fmt.Fprintf(&b, "router stalls/flits p50/p95: AD0 %.3f/%.3f, AD3 %.3f/%.3f\n",
		a0.RouterRatioP50, a0.RouterRatioP95, a3.RouterRatioP50, a3.RouterRatioP95)
	return b.String()
}
