package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/stats"
)

// Fig9Result reproduces the paper's Fig. 9: controlled (reservation)
// experiments where every job on the machine runs the SAME app with the
// SAME routing mode, swept over all four adaptive modes. Runtimes are
// Z-scored per application over the pooled mode samples.
type Fig9Result struct {
	Nodes int
	// Z[mode] aggregates the normalized runtimes of all apps and jobs.
	Z map[routing.Mode]*stats.Agg
	// Mean[mode] is the mean normalized runtime.
	Mean map[routing.Mode]float64
	// Spread[mode] is max-min of the normalized runtimes.
	Spread map[routing.Mode]float64
}

// Fig9ControlledAllModes runs the ensembles: for each app and each mode,
// `EnsembleMedium` simultaneous jobs, half compact, half dispersed. The
// per-(mode, policy) reservations are independent machine runs, so each
// app's eight ensembles fan out across the worker pool; runtimes fold in
// the original nesting order and each RunResult is dropped right after
// its fold, keeping output identical to the sequential sweep in O(workers)
// memory.
func Fig9ControlledAllModes(p Profile, seed int64) (*Fig9Result, error) {
	mp, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{
		Nodes:  p.NodesMedium,
		Z:      map[routing.Mode]*stats.Agg{},
		Mean:   map[routing.Mode]float64{},
		Spread: map[routing.Mode]float64{},
	}
	modes := []routing.Mode{routing.AD0, routing.AD1, routing.AD2, routing.AD3}
	for _, mode := range modes {
		res.Z[mode] = stats.NewAgg()
	}
	policies := []placement.Policy{placement.Compact, placement.Dispersed}
	count := p.EnsembleMedium / 2
	if count < 1 {
		count = 1
	}
	// Per app: run each mode's ensemble, fold raw runtimes, z-score per
	// app over all modes pooled, then merge into the cross-app aggregates
	// in mode order.
	for _, a := range []apps.App{apps.MILC{}, apps.Nek5000{}, apps.Qbox{}} {
		a := a
		perMode := map[routing.Mode]*stats.Agg{}
		for _, mode := range modes {
			perMode[mode] = stats.NewAgg()
		}
		pool := stats.NewAgg()
		err := parallel.ReduceContext(context.Background(), mp.workers(), len(modes)*len(policies),
			func(worker, idx int) (*core.RunResult, error) {
				mi, policy := idx/len(policies), policies[idx%len(policies)]
				return ensembleRun(mp.machine(worker), p, a, count, p.NodesMedium,
					modes[mi], policy, seed+int64(mi)*101)
			},
			func(idx int, run *core.RunResult) {
				agg := perMode[modes[idx/len(policies)]]
				for _, j := range run.Jobs {
					v := j.Runtime.Seconds()
					agg.Add(v)
					pool.Add(v)
				}
			})
		if err != nil {
			return nil, err
		}
		mean, std := pool.Mean(), pool.Std()
		for _, mode := range modes {
			res.Z[mode].Merge(perMode[mode].Normalized(mean, std))
		}
	}
	for mode, zs := range res.Z {
		res.Mean[mode] = zs.Mean()
		res.Spread[mode] = zs.Max() - zs.Min()
	}
	return res, nil
}

// Render prints the per-mode normalized summary (the paper's box plot).
func (r *Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — controlled ensembles, all apps, %d nodes, modes AD0..AD3\n", r.Nodes)
	fmt.Fprintf(&b, "%-6s %-6s %-9s %-9s %-9s\n", "mode", "n", "mean(z)", "sd(z)", "range(z)")
	for _, mode := range []routing.Mode{routing.AD0, routing.AD1, routing.AD2, routing.AD3} {
		zs := r.Z[mode]
		fmt.Fprintf(&b, "%-6s %-6d %-+9.3f %-9.3f %-9.2f\n",
			mode, zs.Count(), r.Mean[mode], zs.Std(), r.Spread[mode])
	}
	return b.String()
}
