package experiments

import (
	"fmt"
	"strings"

	"repro/internal/routing"
	"repro/internal/stats"
)

// Fig7Result reproduces the paper's Fig. 7: per-application Z-scored
// runtime distributions under AD0 vs AD3 (the companion plot to
// Table II). It reuses Table II's samples.
type Fig7Result struct {
	Nodes int
	// Z[app][mode] holds the normalized runtimes in sample order (pooled
	// normalization per app across both modes).
	Z map[string]map[routing.Mode][]float64
	// Order preserves the app ordering.
	Order []string
}

// Fig7NormalizedAllApps derives the figure from Table II samples.
func Fig7NormalizedAllApps(t2 *Table2Result) *Fig7Result {
	res := &Fig7Result{Nodes: t2.Nodes, Z: map[string]map[routing.Mode][]float64{}}
	pooled := map[string][]float64{}
	perMode := map[string]map[routing.Mode][]float64{}
	for _, s := range t2.Samples {
		if _, ok := pooled[s.App]; !ok {
			res.Order = append(res.Order, s.App)
		}
		pooled[s.App] = append(pooled[s.App], s.RuntimeSec)
		appendAt(perMode, s.App, s.Mode, s.RuntimeSec)
	}
	for _, app := range res.Order {
		mean, std := stats.MeanStd(pooled[app])
		res.Z[app] = map[routing.Mode][]float64{}
		for mode, xs := range perMode[app] {
			res.Z[app][mode] = stats.ZScoresAgainst(xs, mean, std)
		}
	}
	return res
}

// Render prints the per-app mode summaries (mean z, spread).
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — normalized runtimes per application, AD0 vs AD3 (%d nodes)\n", r.Nodes)
	fmt.Fprintf(&b, "%-13s %-7s %-9s %-9s %-9s %-9s\n", "App", "mode", "mean(z)", "sd(z)", "min(z)", "max(z)")
	for _, app := range r.Order {
		for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
			zs := r.Z[app][mode]
			if len(zs) == 0 {
				continue
			}
			mean, std := stats.MeanStd(zs)
			lo, hi := stats.MinMax(zs)
			fmt.Fprintf(&b, "%-13s %-7s %-+9.2f %-9.2f %-+9.2f %-+9.2f\n",
				app, mode, mean, std, lo, hi)
		}
	}
	return b.String()
}
