package repro_test

// One benchmark per table and figure of the paper's evaluation section,
// each regenerating the experiment at bench scale (see
// experiments.Bench). Run them all with:
//
//	go test -bench=. -benchmem
//
// Custom metrics: comparison benchmarks report the headline AD3-vs-AD0
// observable of their experiment (e.g. ad3_improvement_%). Seeds are
// fixed so the measured work is identical across iterations; runs that
// share a campaign (Table II -> Figs. 2, 5-8; Fig. 13 -> Fig. 14)
// memoize it, exactly as cmd/reproduce does.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/routing"
)

func benchProfile() experiments.Profile { return experiments.Bench() }

// ensembleProfile sizes the sequential-vs-parallel benchmark pair: enough
// independent runs (Runs x 2 modes) to keep every worker busy.
func ensembleProfile(workers int) experiments.Profile {
	p := benchProfile()
	p.Runs = 4
	p.Workers = workers
	return p
}

func benchEnsemble(b *testing.B, workers int) []experiments.Sample {
	b.Helper()
	p := ensembleProfile(workers)
	var samples []experiments.Sample
	for i := 0; i < b.N; i++ {
		s, err := experiments.ProductionEnsemble(p, apps.MILC{}, p.NodesMedium,
			[]routing.Mode{routing.AD0, routing.AD3}, 1)
		if err != nil {
			b.Fatal(err)
		}
		samples = s
	}
	return samples
}

// BenchmarkEnsembleSequential and BenchmarkEnsembleParallel measure the
// same MILC production campaign with 1 worker and with all CPUs; compare
// with `go test -bench=BenchmarkEnsemble`. The parallel run's merged
// output is checked against the sequential result inside
// BenchmarkEnsembleParallel, so the speedup never comes at the cost of
// determinism.
func BenchmarkEnsembleSequential(b *testing.B) {
	benchEnsemble(b, 1)
}

func BenchmarkEnsembleParallel(b *testing.B) {
	par := benchEnsemble(b, runtime.NumCPU())
	b.StopTimer()
	p := ensembleProfile(1)
	seq, err := experiments.ProductionEnsemble(p, apps.MILC{}, p.NodesMedium,
		[]routing.Mode{routing.AD0, routing.AD3}, 1)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		b.Fatal("parallel ensemble diverged from sequential result")
	}
}

// BenchmarkEnsembleWorkers is the worker-sweep scaling curve: the same
// MILC campaign at -j 1, 2, 4, and 8 (BENCH_3.json keeps an earlier run
// of it as history; the end-to-end benchmark is _perfbench). On a
// single-CPU host all points collapse onto sequential throughput (the
// workers run concurrently but not in parallel); the curve is only
// meaningful where runtime.NumCPU allows real overlap, so read it
// alongside the host's CPU count.
func BenchmarkEnsembleWorkers(b *testing.B) {
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			benchEnsemble(b, j)
		})
	}
}

// The Table II production campaign feeds six benchmarks (as it does six
// artifacts in cmd/reproduce); it is memoized per seed so a full
// `go test -bench=.` pass regenerates it once, not six times.
var table2Memo = map[int64]*experiments.Table2Result{}

// Fig. 13's two campaigns likewise feed both Fig. 13 and Fig. 14.
var fig13Memo = map[int64]*experiments.Fig13Result{}

func BenchmarkFig1JobSizeCCDF(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1JobSizes(p, 1)
		if len(r.CCDF) == 0 {
			b.Fatal("empty ccdf")
		}
	}
}

func BenchmarkTable1AppCharacterization(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1Characterization(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 6 {
			b.Fatal("missing rows")
		}
	}
}

// table2 runs the shared production campaign; Figs. 2, 5-8 derive from it.
func runTable2(b *testing.B, seed int64) *experiments.Table2Result {
	b.Helper()
	if t2, ok := table2Memo[seed]; ok {
		return t2
	}
	t2, err := experiments.Table2AllApps(benchProfile(), seed)
	if err != nil {
		b.Fatal(err)
	}
	table2Memo[seed] = t2
	return t2
}

func BenchmarkTable2AllApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2 := runTable2(b, 1)
		for _, row := range t2.Rows {
			if row.App == "MILC" {
				b.ReportMetric(row.ImprovePct, "ad3_improvement_%")
			}
		}
	}
}

func BenchmarkFig2MILCRuntimePDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2 := runTable2(b, 1)
		r := experiments.Fig2FromSamples(t2.Nodes, t2.Samples)
		a0 := r.PerApp["MILC"][routing.AD0]
		a3 := r.PerApp["MILC"][routing.AD3]
		if a0.Mean > 0 {
			b.ReportMetric(100*(a0.Mean-a3.Mean)/a0.Mean, "ad3_improvement_%")
		}
	}
}

func BenchmarkFig3MILCByGroups(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3GroupsSpanned(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanImprovement["MILC"][p.NodesMedium], "ad3_improvement_%")
	}
}

func BenchmarkFig4CoriMILC(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4CoriGroupsSpanned(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanImprovement["MILC"][p.CoriNodesMedium], "ad3_improvement_%")
	}
}

func BenchmarkFig5MILCBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2 := runTable2(b, 1)
		r := experiments.Fig5FromSamples(t2.Samples)
		if len(r.Runs) == 0 {
			b.Fatal("no runs")
		}
	}
}

func BenchmarkFig6TileRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2 := runTable2(b, 1)
		r := experiments.Fig6FromTable2(t2)
		if len(r.Ratios) == 0 {
			b.Fatal("no ratios")
		}
	}
}

func BenchmarkFig7NormalizedAllApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2 := runTable2(b, 1)
		r := experiments.Fig7NormalizedAllApps(t2)
		if len(r.Order) != 6 {
			b.Fatal("missing apps")
		}
	}
}

func BenchmarkFig8HACCBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2 := runTable2(b, 1)
		r := experiments.Fig8HACCBreakdown(t2)
		if len(r.Runs) == 0 {
			b.Fatal("no HACC runs")
		}
	}
}

func BenchmarkFig9ControlledAllModes(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9ControlledAllModes(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		// Headline ordering metric: AD0 mean z minus AD3 mean z
		// (positive = AD3 faster).
		b.ReportMetric(r.Mean[routing.AD0]-r.Mean[routing.AD3], "z_AD0_minus_AD3")
	}
}

func BenchmarkFig10MILCEnsemble(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10MILCEnsembleCounters(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		a0 := r.PerMode[routing.AD0]
		a3 := r.PerMode[routing.AD3]
		if f := a0.Totals.TotalFlits(); f > 0 {
			b.ReportMetric(float64(a3.Totals.TotalFlits())/float64(f), "ad3_flit_ratio")
		}
	}
}

func BenchmarkFig11RegimeComparison(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11RegimeComparison(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Ratios) == 0 {
			b.Fatal("no regimes")
		}
	}
}

func BenchmarkFig12HACCEnsemble(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12HACCEnsembleCounters(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		a0 := r.PerMode[routing.AD0]
		a3 := r.PerMode[routing.AD3]
		if a0.PeakRank3Stalls > 0 {
			// Paper Fig. 12: localized rank-3 hot spots under AD3.
			b.ReportMetric(a3.PeakRank3Stalls/a0.PeakRank3Stalls, "ad3_peak_stall_ratio")
		}
	}
}

func benchFig13(b *testing.B, seed int64) *experiments.Fig13Result {
	b.Helper()
	if r, ok := fig13Memo[seed]; ok {
		return r
	}
	r, err := experiments.Fig13DefaultSwitch(benchProfile(), seed)
	if err != nil {
		b.Fatal(err)
	}
	fig13Memo[seed] = r
	return r
}

func BenchmarkFig13DefaultSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchFig13(b, 1)
		if before := r.Before.NetworkRatio(); before > 0 {
			b.ReportMetric(100*(before-r.After.NetworkRatio())/before, "stall_ratio_improvement_%")
		}
	}
}

func BenchmarkFig14LatencyPercentiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14LatencyPercentiles(benchFig13(b, 1))
		// Tail latency change at P99 (paper: -20 to -30%).
		b.ReportMetric(r.ChangePct[6], "p99_change_%")
	}
}

// Ablation benchmarks: design-choice sweeps called out in DESIGN.md,
// at one run per configuration.

func ablationProfile() experiments.Profile {
	p := benchProfile()
	p.Runs = 1
	return p
}

func BenchmarkAblationCandidates(b *testing.B) {
	p := ablationProfile()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCandidates(p, routing.AD0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBufferDepth(b *testing.B) {
	p := ablationProfile()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBufferDepth(p, routing.AD0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEstimateQuality(b *testing.B) {
	p := ablationProfile()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEstimateQuality(p, routing.AD0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBaselines(b *testing.B) {
	p := ablationProfile()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationBaselines(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		_ = r
	}
}
