package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/stats"
)

// Table2Row is one application's production comparison (the paper's
// Table II): mean ± σ runtime under AD0 and AD3 and the percentage
// improvements in total time and MPI time.
type Table2Row struct {
	App             string
	MeanAD0, StdAD0 float64
	MeanAD3, StdAD3 float64
	ImprovePct      float64 // runtime improvement of AD3 over AD0
	ImproveMPIPct   float64 // MPI-time improvement
	Runs            int     // per mode
	WelchT          float64 // significance of the runtime difference
}

// Table2Result is the full table plus the campaign's residue shared with
// the rest of the t2 family: compact per-run samples (Figs. 2/5/7/8) and
// MILC's tile-ratio aggregates (Fig. 6 via Fig6FromTable2). The full
// autoperf.Reports exist only inside the streaming fold.
type Table2Result struct {
	Nodes   int
	Rows    []Table2Row
	Samples []Sample
	Tiles   tileAggs
}

// Table2AllApps runs the production campaign for every application at the
// medium size under AD0 and AD3, collecting per-run values as the runs stream.
func Table2AllApps(p Profile, seed int64) (*Table2Result, error) {
	ms, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	return p.productionStudy(ms, apps.All(), seed)
}

// productionStudy runs the medium-size AD0-vs-AD3 production campaign for
// each app in list, in order, on the warm machines ms. Every app's runs start
// from the same seed, so an app's samples do not depend on which other
// apps the list holds: a study over just MILC reproduces the MILC part of
// Table II (and with it Figs. 2, 5 and 6) run for run.
func (p Profile) productionStudy(ms []*core.Machine, list []apps.App, seed int64) (*Table2Result, error) {
	res := &Table2Result{Nodes: p.NodesMedium, Tiles: tileAggs{}}
	modes := []routing.Mode{routing.AD0, routing.AD3}
	for _, a := range list {
		rt := map[routing.Mode][]float64{}
		mpiT := map[routing.Mode][]float64{}
		isMILC := a.Name() == apps.MILC{}.Name()
		err := production(context.Background(), ms, p, a, p.NodesMedium, modes,
			core.DefaultBackground(), seed, func(s *Sample) {
				res.Samples = append(res.Samples, s.Compact())
				rt[s.Mode] = append(rt[s.Mode], s.RuntimeSec)
				mpiT[s.Mode] = append(mpiT[s.Mode], s.MPISec())
				if isMILC {
					foldTileRatios(res.Tiles, s)
				}
			})
		if err != nil {
			return nil, err
		}
		f0 := stats.FilterOutliers(rt[routing.AD0], 3)
		f3 := stats.FilterOutliers(rt[routing.AD3], 3)
		row := Table2Row{
			App:           a.Name(),
			ImprovePct:    stats.PercentImprovement(f0, f3),
			ImproveMPIPct: stats.PercentImprovement(mpiT[routing.AD0], mpiT[routing.AD3]),
			Runs:          len(f0),
		}
		row.MeanAD0, row.StdAD0 = stats.MeanStd(f0)
		row.MeanAD3, row.StdAD3 = stats.MeanStd(f3)
		row.WelchT, _ = stats.WelchT(f0, f3)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the table in the paper's format.
func (r *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — mean(σ) runtime (s) and %% improvement of AD3 over AD0, %d nodes, production\n", r.Nodes)
	fmt.Fprintf(&b, "%-13s %-18s %-18s %-10s %-10s %-6s %-6s\n",
		"App", "AD0 µ±σ", "AD3 µ±σ", "%time", "%MPI", "runs", "t")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-13s %8.4f ± %-7.4f %8.4f ± %-7.4f %-10.1f %-10.1f %-6d %-6.1f\n",
			row.App, row.MeanAD0, row.StdAD0, row.MeanAD3, row.StdAD3,
			row.ImprovePct, row.ImproveMPIPct, row.Runs, row.WelchT)
	}
	return b.String()
}
