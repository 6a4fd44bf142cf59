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
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// AblationPoint is one configuration's outcome in an ablation sweep.
type AblationPoint struct {
	Label       string
	MeanRuntime float64
	StdRuntime  float64
	StallRatio  float64 // network-tile stalls-to-flits over the runs
	NonMinPct   float64 // job packets routed non-minimally
}

// AblationResult is one sweep over a design-choice axis.
type AblationResult struct {
	Axis   string
	App    string
	Mode   routing.Mode
	Points []AblationPoint
}

// Render prints the sweep.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — %s (%s under %s)\n", r.Axis, r.App, r.Mode)
	fmt.Fprintf(&b, "%-22s %-10s %-10s %-10s %-10s\n",
		"config", "mean(s)", "std(s)", "stl/flt", "nonmin%")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%-22s %-10.4f %-10.4f %-10.3f %-10.1f\n",
			pt.Label, pt.MeanRuntime, pt.StdRuntime, pt.StallRatio, pt.NonMinPct)
	}
	return b.String()
}

// ablationRun executes p.Runs production runs of MILC with the given mode
// and returns the aggregate point. The seeded runs are independent, so
// they fan out across the pool; each result folds in run order and is
// dropped right after, so the sweep retains O(workers) full results.
func ablationRun(mp *machinePool, p Profile, mode routing.Mode, label string, seed int64) (AblationPoint, error) {
	var times []float64
	var stalls, flits float64
	var nonMin, total uint64
	err := parallel.ReduceContext(context.Background(), mp.workers(), p.Runs,
		func(worker, i int) (*core.JobResult, error) {
			spec := p.jobSpec(apps.MILC{}, p.NodesMedium, mode, placement.Dispersed, 0, seed+int64(i))
			job, _, err := mp.machine(worker).RunOne(spec, core.RunOpts{
				Seed:       seed + int64(i),
				Background: core.DefaultBackground(),
				Warmup:     p.Warmup,
			})
			return job, err
		},
		func(_ int, job *core.JobResult) {
			times = append(times, job.Runtime.Seconds())
			for _, class := range topology.NetworkTileClasses {
				stalls += job.Report.LocalTiles.Stalls[class]
				flits += float64(job.Report.LocalTiles.Flits[class])
			}
			nonMin += job.NonMinimalPkts
			total += job.MinimalPkts + job.NonMinimalPkts
		})
	if err != nil {
		return AblationPoint{}, err
	}
	mean, std := stats.MeanStd(times)
	pt := AblationPoint{Label: label, MeanRuntime: mean, StdRuntime: std}
	if flits > 0 {
		pt.StallRatio = stalls / flits
	}
	if total > 0 {
		pt.NonMinPct = 100 * float64(nonMin) / float64(total)
	}
	return pt, nil
}

// AblationCandidates sweeps the number of path candidates the adaptive
// choice scores (Aries evaluates a small fixed set; more candidates mean
// better-informed but costlier decisions).
func AblationCandidates(p Profile, mode routing.Mode, seed int64) (*AblationResult, error) {
	res := &AblationResult{Axis: "routing candidates (minimal/valiant)", App: "MILC", Mode: mode}
	for _, k := range []int{1, 2, 4} {
		k := k
		mp, err := p.thetaPool()
		if err != nil {
			return nil, err
		}
		mp.apply(func(m *core.Machine) {
			m.Route.MinimalCandidates = k
			m.Route.NonMinimalCandidates = k
		})
		pt, err := ablationRun(mp, p, mode, fmt.Sprintf("k=%d", k), seed)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// AblationBufferDepth sweeps per-VC buffer capacity: shallow buffers mean
// early backpressure and congestion spreading; deep buffers absorb bursts
// as latency.
func AblationBufferDepth(p Profile, mode routing.Mode, seed int64) (*AblationResult, error) {
	res := &AblationResult{Axis: "per-VC buffer depth", App: "MILC", Mode: mode}
	for _, flits := range []int{256, 768, 3072} {
		flits := flits
		mp, err := p.thetaPool()
		if err != nil {
			return nil, err
		}
		mp.apply(func(m *core.Machine) { m.Net.BufferFlits = flits })
		pt, err := ablationRun(mp, p, mode,
			fmt.Sprintf("%dKB", flits*network.FlitBytes/1024), seed)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// AblationEstimateQuality sweeps the congestion-estimate error model: an
// oracle estimator (fresh, exact) against the hardware-faithful stale and
// noisy one. The gap is the information-quality mechanism behind the
// paper's findings.
func AblationEstimateQuality(p Profile, mode routing.Mode, seed int64) (*AblationResult, error) {
	res := &AblationResult{Axis: "load-estimate quality", App: "MILC", Mode: mode}
	type cfg struct {
		label     string
		staleness sim.Time
		jitter    float64
	}
	for _, c := range []cfg{
		{"oracle", 0, 0},
		{"stale-3us", 3 * sim.Microsecond, 0},
		{"stale+jitter", 3 * sim.Microsecond, 0.75},
	} {
		c := c
		mp, err := p.thetaPool()
		if err != nil {
			return nil, err
		}
		mp.apply(func(m *core.Machine) {
			m.Net.LoadStaleness = c.staleness
			m.Net.LoadJitter = c.jitter
		})
		pt, err := ablationRun(mp, p, mode, c.label, seed)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// AblationBaselines compares the adaptive presets against the pure
// MIN/VAL bounds from the dragonfly literature.
func AblationBaselines(p Profile, seed int64) (*AblationResult, error) {
	res := &AblationResult{Axis: "routing policy bounds", App: "MILC", Mode: routing.AD0}
	mp, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	for _, mode := range []routing.Mode{
		routing.MinimalOnly, routing.AD3, routing.AD2, routing.AD1,
		routing.AD0, routing.ValiantOnly,
	} {
		pt, err := ablationRun(mp, p, mode, mode.String(), seed)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
