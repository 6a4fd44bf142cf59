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
	// Z[app][mode] aggregates the normalized runtimes (pooled
	// normalization per app across both modes).
	Z map[string]map[routing.Mode]*stats.Agg
	// Order preserves the app ordering.
	Order []string
}

// Fig7NormalizedAllApps derives the figure from Table II samples.
func Fig7NormalizedAllApps(t2 *Table2Result) *Fig7Result {
	res := &Fig7Result{Nodes: t2.Nodes, Z: map[string]map[routing.Mode]*stats.Agg{}}
	pooled := map[string]*stats.Agg{}
	perMode := map[string]map[routing.Mode]*stats.Agg{}
	for _, s := range t2.Samples {
		if _, ok := pooled[s.App]; !ok {
			res.Order = append(res.Order, s.App)
			pooled[s.App] = stats.NewAgg()
		}
		pooled[s.App].Add(s.RuntimeSec)
		aggAt(perMode, s.App, s.Mode).Add(s.RuntimeSec)
	}
	for _, app := range res.Order {
		mean, std := pooled[app].Mean(), pooled[app].Std()
		res.Z[app] = map[routing.Mode]*stats.Agg{}
		for mode, agg := range perMode[app] {
			res.Z[app][mode] = agg.Normalized(mean, std)
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
			if zs.Count() == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-13s %-7s %-+9.2f %-9.2f %-+9.2f %-+9.2f\n",
				app, mode, zs.Mean(), zs.Std(), zs.Min(), zs.Max())
		}
	}
	return b.String()
}
