package experiments

import (
	"fmt"
	"strings"

	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
)

// tileAggs pools per-tile stalls-to-flits ratios per mode and class as
// mergeable online aggregates, folded in seed order during the campaign
// (the distributions cannot be rebuilt from compact samples afterwards).
type tileAggs = map[routing.Mode]map[topology.TileClass]*stats.Agg

// foldTileRatios folds one full sample's per-class tile ratios into dst.
// Must run inside the streaming fold, before Compact drops the report's
// tile ratios. Every class gets an aggregate (even if empty), mirroring
// the report's LocalTileRatios classes.
func foldTileRatios(dst tileAggs, s *Sample) {
	for class := topology.TileClass(0); class < topology.NumTileClasses; class++ {
		aggAt(dst, s.Mode, class).AddAll(s.Report.LocalTileRatios[class])
	}
}

// Fig6Result reproduces the paper's Fig. 6: the stalls-to-flits ratio on
// the application's local router tiles, broken down by tile class
// (Rank3/Rank2/Rank1/Proc_req/Proc_rsp), under AD0 vs AD3.
type Fig6Result struct {
	App   string
	Nodes int
	// Ratios[mode][class] aggregates the per-tile ratios pooled over all
	// runs of that mode, in run order.
	Ratios tileAggs
}

// Render prints the per-class ratio summary in the paper's order.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 — %s stalls-to-flits ratio by tile class (%d nodes)\n", r.App, r.Nodes)
	order := []topology.TileClass{
		topology.TileRank3, topology.TileRank2, topology.TileRank1,
		topology.TileProcReq, topology.TileProcRsp,
	}
	fmt.Fprintf(&b, "%-10s %-22s %-22s\n", "tile", "AD0 mean/p95", "AD3 mean/p95")
	for _, class := range order {
		a0 := r.Ratios[routing.AD0][class]
		a3 := r.Ratios[routing.AD3][class]
		fmt.Fprintf(&b, "%-10s %-8.3f/%-13.3f %-8.3f/%-13.3f\n", class,
			a0.Mean(), a0.Percentile(95),
			a3.Mean(), a3.Percentile(95))
	}
	return b.String()
}

// Fig6FromTable2 derives the Fig. 6 result from a Table II campaign's
// tile aggregates: the campaign folds MILC's ratios out of each AutoPerf
// report as it streams, so the t2 family shares one set of runs and
// never retains a full report.
func Fig6FromTable2(t2 *Table2Result) *Fig6Result {
	return &Fig6Result{App: "MILC", Nodes: t2.Nodes, Ratios: t2.Tiles}
}
