package experiments

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/routing"
)

// TestEnsembleWarmPoolArtifactBytes pins machine reuse at the ensemble
// level: the second campaign on a pool runs entirely on warm machines
// (every kernel and fabric rewound in place from the first campaign),
// and must reproduce the cold pool's samples deeply equal and its
// rendered Fig. 6 artifact byte for byte. Together with
// core.TestMachineResetEquivalence this closes the reset-reuse loop from
// kernel state all the way to artifact bytes.
func TestEnsembleWarmPoolArtifactBytes(t *testing.T) {
	p := testProfile()
	p.Workers = 2
	modes := []routing.Mode{routing.AD0, routing.AD3}
	app := apps.MILC{}

	mp, err := p.thetaPool()
	if err != nil {
		t.Fatal(err)
	}
	campaign := func() ([]Sample, *Fig6Result) {
		tiles := tileAggs{}
		var samples []Sample
		err := production(context.Background(), mp, p, app, p.NodesMedium, modes,
			core.DefaultBackground(), 42, func(s *Sample) {
				samples = append(samples, s.Compact())
				foldTileRatios(tiles, s)
			})
		if err != nil {
			t.Fatal(err)
		}
		return samples, &Fig6Result{App: app.Name(), Nodes: p.NodesMedium, Ratios: tiles}
	}
	cold, f6Cold := campaign()
	warm, f6Warm := campaign()
	if !reflect.DeepEqual(cold, warm) {
		t.Error("warm-pool campaign samples differ from the cold-pool campaign")
	}
	a, b := f6Cold.Render(), f6Warm.Render()
	if a != b {
		t.Errorf("rendered Fig. 6 differs between cold and warm pool:\n--- cold ---\n%s--- warm ---\n%s", a, b)
	}
}

// TestParallelScalingGate is the CI regression gate for replication-level
// parallelism: a -j 4 ensemble finishing slower than the sequential one
// is a bug (the state BENCH_2.json recorded at 0.81x), not a tuning
// note. It is opt-in via SCALING_GATE=1 because it measures wall-clock —
// meaningless under -race, on loaded laptops, or on single-CPU hosts,
// where it skips.
func TestParallelScalingGate(t *testing.T) {
	if os.Getenv("SCALING_GATE") == "" {
		t.Skip("set SCALING_GATE=1 to run the wall-clock scaling gate")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("host has %d CPU; parallel speedup is unmeasurable", runtime.NumCPU())
	}
	p := testProfile()
	p.Runs = 8 // enough tasks (x2 modes) to keep 4 workers busy
	modes := []routing.Mode{routing.AD0, routing.AD3}

	run := func(workers int) time.Duration {
		p.Workers = workers
		start := time.Now()
		if _, err := ProductionEnsemble(p, apps.MILC{}, p.NodesMedium, modes, 3); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(1) // warm OS caches so the timed pair compares like with like
	seq := run(1)
	par := run(4)
	t.Logf("sequential %v, -j4 %v, speedup %.2fx", seq, par, seq.Seconds()/par.Seconds())
	if par > seq {
		t.Errorf("-j4 ensemble (%v) slower than sequential (%v): parallel running is a regression", par, seq)
	}
}
