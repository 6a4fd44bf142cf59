package repro_test

// The streaming-reduction memory gate: production campaigns keep each
// run's autoperf.Report without its tile-ratio slices (which scale with
// router count) once the streaming fold has seen it, so the retained heap
// of a finished campaign is bounded by the fixed-size compact reports —
// it must NOT scale with Runs the way retaining the full reports would.
//
// The gate measures the retained-heap growth from a Runs=N to a Runs=4N
// campaign and requires it to stay below what the extra runs' full
// reports would have cost (probed by retaining one real report graph).

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/placement"
	"repro/internal/routing"
)

// retainedBytes measures the retained heap attributable to build's
// return value: GC-settled heap before, minus GC-settled heap after,
// with everything else build allocated dead by then.
func retainedBytes(t *testing.T, build func() any) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	d := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(kept)
	return d
}

func TestCampaignMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("memory gate runs two full campaigns; skipped under -short")
	}
	modes := []routing.Mode{routing.AD0, routing.AD3}
	base := benchProfile().Runs
	campaign := func(runs int) func() any {
		return func() any {
			p := benchProfile()
			p.Workers = 2
			p.Runs = runs
			samples, err := experiments.ProductionEnsemble(p, apps.MILC{}, p.NodesMedium, modes, 42)
			if err != nil {
				t.Fatal(err)
			}
			if len(samples) != runs*len(modes) {
				t.Fatalf("got %d samples, want %d", len(samples), runs*len(modes))
			}
			for i := range samples {
				if samples[i].Report == nil {
					t.Fatalf("sample %d lost its report", i)
				}
				for class, ratios := range samples[i].Report.LocalTileRatios {
					if ratios != nil {
						t.Fatalf("sample %d retained %d tile ratios of class %d", i, len(ratios), class)
					}
				}
			}
			return samples
		}
	}

	// Probe: the retained size of one real report graph, measured on an
	// already-warm machine so the machine's own steady-state allocations
	// don't leak into the delta.
	p := benchProfile()
	m, err := core.NewMachine(p.Theta)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.JobSpec{
		App:       apps.MILC{},
		Cfg:       apps.Config{Iterations: p.Iterations["MILC"], Scale: p.Scale["MILC"], Seed: 42},
		Nodes:     p.NodesMedium,
		Placement: placement.Dispersed,
		Env:       mpi.UniformEnv(routing.AD0),
	}
	opts := core.RunOpts{Seed: 42, Background: core.DefaultBackground(), Warmup: p.Warmup}
	if _, _, err := m.RunOne(spec, opts); err != nil { // warm the fabric
		t.Fatal(err)
	}
	probe := retainedBytes(t, func() any {
		job, _, err := m.RunOne(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		return job.Report
	})
	runtime.KeepAlive(m)
	if probe <= 0 {
		t.Fatalf("report probe measured %d bytes retained; expected a positive report graph", probe)
	}

	campaign(base)() // settle one-time allocations (pools, lazy globals)
	small := retainedBytes(t, campaign(base))
	large := retainedBytes(t, campaign(4*base))
	growth := large - small
	extraTasks := 3 * base * len(modes)
	budget := int64(extraTasks) * probe
	t.Logf("retained: runs=%d %dB, runs=%d %dB, growth %dB; one-report probe %dB, budget (%d reports) %dB",
		base, small, 4*base, large, growth, probe, extraTasks, budget)
	if growth >= budget {
		t.Errorf("retained heap grew %dB from runs=%d to runs=%d — at least as much as the %d extra runs' full reports (%dB): the campaign is retaining report-scale state",
			growth, base, 4*base, extraTasks, budget)
	}
}
