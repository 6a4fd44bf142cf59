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

// Regime labels for Fig. 11.
const (
	RegimeProduction         = "production"
	RegimeIsolated           = "isolated"
	RegimeControlledCompact  = "controlled-compact"
	RegimeControlledDisperse = "controlled-disperse"
)

// Fig11Result reproduces the paper's Fig. 11: the distribution (PDF) of
// stalls-to-flits ratios on the job's local network tiles for MILC at the
// medium size, compared across production, isolated, and controlled
// (compact / disperse ensemble) regimes, for AD0 and AD3.
type Fig11Result struct {
	Nodes int
	// Ratios[mode][regime] aggregates per-tile network-tile ratios.
	Ratios map[routing.Mode]map[string]*stats.Agg
}

// Fig11RegimeComparison runs all three regimes for both modes. Within a
// mode the production campaign, the isolated runs, and the two controlled
// ensembles each fan their independent runs across the worker pool; the
// ratio aggregates fold in run order, so output matches the sequential
// sweep exactly — and no regime retains a full report past its fold.
func Fig11RegimeComparison(p Profile, seed int64) (*Fig11Result, error) {
	ms, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{Nodes: p.NodesMedium, Ratios: map[routing.Mode]map[string]*stats.Agg{}}
	for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
		mode := mode

		// Production: noisy machine.
		prodAgg := aggAt(res.Ratios, mode, RegimeProduction)
		err := production(context.Background(), ms, p, apps.MILC{}, p.NodesMedium,
			[]routing.Mode{mode}, core.DefaultBackground(), seed, func(s *Sample) {
				prodAgg.AddAll(networkTileRatios(s.Report))
			})
		if err != nil {
			return nil, err
		}

		// Isolated: one job alone.
		isoAgg := aggAt(res.Ratios, mode, RegimeIsolated)
		err = parallel.ReduceContext(context.Background(), len(ms), p.Runs,
			func(worker, i int) (Sample, error) {
				return isolatedSample(ms[worker], p, apps.MILC{}, p.NodesMedium,
					mode, placement.Dispersed, seed+int64(i))
			},
			func(i int, s Sample) {
				isoAgg.AddAll(networkTileRatios(s.Report))
			})
		if err != nil {
			return nil, err
		}

		// Controlled: ensembles of the same app, compact and disperse.
		regimes := []struct {
			regime string
			policy placement.Policy
		}{
			{RegimeControlledCompact, placement.Compact},
			{RegimeControlledDisperse, placement.Dispersed},
		}
		err = parallel.ReduceContext(context.Background(), len(ms), len(regimes),
			func(worker, idx int) (*core.RunResult, error) {
				return ensembleRun(ms[worker], p, apps.MILC{}, p.EnsembleMedium,
					p.NodesMedium, mode, regimes[idx].policy, seed+977)
			},
			func(idx int, run *core.RunResult) {
				agg := aggAt(res.Ratios, mode, regimes[idx].regime)
				for _, j := range run.Jobs {
					agg.AddAll(networkTileRatios(j.Report))
				}
			})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render prints summary statistics of each regime's ratio distribution;
// the paper's claim is that production lies between the two controlled
// bounds under AD0.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11 — stalls-to-flits ratio on network tiles, MILC %d nodes\n", r.Nodes)
	for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
		fmt.Fprintf(&b, "%s:\n", mode)
		for _, regime := range []string{
			RegimeIsolated, RegimeControlledCompact, RegimeProduction, RegimeControlledDisperse,
		} {
			ratios := r.Ratios[mode][regime]
			if ratios.Count() == 0 {
				continue
			}
			ps := ratios.Percentiles([]float64{25, 50, 75, 95})
			fmt.Fprintf(&b, "  %-20s n=%-6d mean=%-8.3f p25=%-8.3f p50=%-8.3f p75=%-8.3f p95=%-8.3f\n",
				regime, ratios.Count(), ratios.Mean(), ps[0], ps[1], ps[2], ps[3])
		}
	}
	return b.String()
}
