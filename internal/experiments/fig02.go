package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/routing"
	"repro/internal/stats"
)

// ModeStats summarizes one routing mode's runtime sample.
type ModeStats struct {
	Mode routing.Mode
	N    int
	Mean float64
	Std  float64
	P95  float64
	PDF  *stats.Histogram
}

// modeStats computes the summary, applying the paper's ±3σ outlier
// filter to the mode's runtimes.
func modeStats(mode routing.Mode, runtimes []float64, lo, hi float64, bins int) ModeStats {
	filtered := stats.FilterOutliers(runtimes, 3)
	mean, std := stats.MeanStd(filtered)
	return ModeStats{
		Mode: mode, N: len(filtered),
		Mean: mean, Std: std,
		P95: stats.Percentile(filtered, 95),
		PDF: stats.NewHistogram(filtered, lo, hi, bins),
	}
}

// Fig2Result reproduces the paper's Fig. 2: runtime probability densities
// for MILC and MILCREORDER at the medium job size under AD0 vs AD3 in
// production conditions.
type Fig2Result struct {
	Nodes  int
	PerApp map[string]map[routing.Mode]ModeStats
}

// Render prints mean / σ / P95 and the density series per app per mode.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — MILC & MILCREORDER runtime PDFs (%d nodes, production)\n", r.Nodes)
	for _, app := range []string{"MILC", "MILCREORDER"} {
		perMode, ok := r.PerApp[app]
		if !ok {
			continue
		}
		for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
			ms := perMode[mode]
			fmt.Fprintf(&b, "%-13s %s n=%-3d mean=%.4fs std=%.4fs p95=%.4fs\n",
				app, mode, ms.N, ms.Mean, ms.Std, ms.P95)
		}
		ad0, ad3 := perMode[routing.AD0], perMode[routing.AD3]
		if ad0.Mean > 0 {
			fmt.Fprintf(&b, "%-13s AD3 mean improvement over AD0: %.1f%% (paper: ~11%%)\n",
				app, 100*(ad0.Mean-ad3.Mean)/ad0.Mean)
		}
		// Density series (bin center, AD0 pdf, AD3 pdf).
		if ad0.PDF != nil && ad3.PDF != nil {
			fmt.Fprintf(&b, "  %-10s %-10s %-10s\n", "runtime", "pdf(AD0)", "pdf(AD3)")
			for i := range ad0.PDF.Counts {
				fmt.Fprintf(&b, "  %-10.4f %-10.3f %-10.3f\n",
					ad0.PDF.BinCenter(i), ad0.PDF.PDF(i), ad3.PDF.PDF(i))
			}
		}
	}
	return b.String()
}

// Fig2FromSamples derives the Fig. 2 PDFs from a production sample set
// (Table II's runs). Compact samples suffice — only runtimes are
// consumed. Each app's density bins span its runtimes under both modes.
func Fig2FromSamples(nodes int, samples []Sample) *Fig2Result {
	runtimes := map[string]map[routing.Mode][]float64{}
	for _, s := range samples {
		if s.App == "MILC" || s.App == "MILCREORDER" {
			appendAt(runtimes, s.App, s.Mode, s.RuntimeSec)
		}
	}
	res := &Fig2Result{Nodes: nodes, PerApp: map[string]map[routing.Mode]ModeStats{}}
	for app, perMode := range runtimes {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, xs := range perMode {
			mn, mx := stats.MinMax(xs)
			lo, hi = min(lo, mn), max(hi, mx)
		}
		res.PerApp[app] = map[routing.Mode]ModeStats{}
		for mode, xs := range perMode {
			res.PerApp[app][mode] = modeStats(mode, xs, lo, hi, 10)
		}
	}
	return res
}
