package experiments

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/routing"
)

// The parallel ensemble runner's contract is byte-identical output for
// every worker count: runs fan out across workers but results merge in
// seed order, and each run draws only from its own explicit streams. These
// tests pin that contract for a communication-light app (MILC) and a
// bandwidth-heavy one (HACC).

func ensembleBothWays(t *testing.T, app apps.App, seed int64) (seq, par []Sample) {
	t.Helper()
	p := testProfile()
	modes := []routing.Mode{routing.AD0, routing.AD3}

	p.Workers = 1
	seq, err := ProductionEnsemble(p, app, p.NodesMedium, modes, seed)
	if err != nil {
		t.Fatalf("sequential ensemble: %v", err)
	}

	p.Workers = 8
	par, err = ProductionEnsemble(p, app, p.NodesMedium, modes, seed)
	if err != nil {
		t.Fatalf("parallel ensemble: %v", err)
	}
	return seq, par
}

func checkEnsembleDeterminism(t *testing.T, app apps.App) {
	t.Helper()
	seq, par := ensembleBothWays(t, app, 42)
	if len(seq) == 0 {
		t.Fatal("empty sample set")
	}
	if len(seq) != len(par) {
		t.Fatalf("sample counts differ: sequential %d, parallel %d", len(seq), len(par))
	}
	// Campaign samples come back compact: the digest is attached and the
	// full report dropped on the worker, before the sample is retained.
	for i := range seq {
		if seq[i].Report != nil || seq[i].Reduced == nil {
			t.Fatalf("sample %d not compact: Report attached=%v, Reduced attached=%v",
				i, seq[i].Report != nil, seq[i].Reduced != nil)
		}
	}
	// DeepEqual follows the Reduced pointers, so this compares the full
	// retained contents — runtimes, per-call digest times, tile totals.
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("sample %d (seed %d, mode %s) differs between workers=1 and workers=8",
				i, seq[i].Seed, seq[i].Mode)
		}
	}
}

// The streaming tile-ratio fold must be worker-count invariant too: the
// per-class aggregates fold in seed order whatever the schedule, so the
// rendered Fig. 6 artifact is byte-identical at any fan-out.
func TestFig6DeterminismAcrossWorkers(t *testing.T) {
	p := testProfile()
	p.Workers = 1
	seq := Fig6FromTable2(milcStudy(t, p, 42, false))
	p.Workers = 8
	par := Fig6FromTable2(milcStudy(t, p, 42, false))
	a, b := seq.Render(), par.Render()
	if a != b {
		t.Errorf("rendered Fig. 6 artifact differs:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", a, b)
	}
}

func TestEnsembleDeterminismMILC(t *testing.T) {
	checkEnsembleDeterminism(t, apps.MILC{})
}

func TestEnsembleDeterminismHACC(t *testing.T) {
	checkEnsembleDeterminism(t, apps.HACC{})
}

// Repeated parallel runs with the same seed must also agree with each
// other (no order-dependent accumulation hiding behind a lucky schedule).
func TestEnsembleParallelRepeatable(t *testing.T) {
	p := testProfile()
	p.Workers = 8
	modes := []routing.Mode{routing.AD0}
	a, err := ProductionEnsemble(p, apps.MILC{}, p.NodesMedium, modes, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProductionEnsemble(p, apps.MILC{}, p.NodesMedium, modes, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two parallel runs with the same seed disagree")
	}
}
