package repro_test

// The streaming-reduction memory gate: production campaigns keep each
// run's autoperf.Report without its tile-ratio slices (which scale with
// router count) once the streaming fold has seen it, so the retained heap
// of a finished campaign is bounded by the fixed-size compact reports —
// it must NOT scale with Runs the way retaining the full reports would.
//
// The gate is deterministic: every retained sample's Report.MemBytes()
// must be one size, the same at Runs=N and Runs=4N, and that size must
// be below one full report's by at least the full report's tile-ratio
// bytes (below the full size alone would pass a campaign that keeps one
// tile-ratio class per sample). A coarse ceiling on the retained-heap
// growth from N to 4N backs it up for state kept outside the reports.

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

	// One full report: what each sample would retain uncompacted.
	p := benchProfile()
	m, err := core.NewMachine(p.Theta)
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := m.RunOne(core.JobSpec{
		App:       apps.MILC{},
		Cfg:       apps.Config{Iterations: p.Iterations["MILC"], Scale: p.Scale["MILC"], Seed: 42},
		Nodes:     p.NodesMedium,
		Placement: placement.Dispersed,
		Env:       mpi.UniformEnv(routing.AD0),
	}, core.RunOpts{Seed: 42, Background: core.DefaultBackground(), Warmup: p.Warmup})
	if err != nil {
		t.Fatal(err)
	}
	full, ratioBytes := job.Report.MemBytes(), 0
	for _, ratios := range job.Report.LocalTileRatios {
		ratioBytes += 8 * cap(ratios)
	}
	if ratioBytes == 0 {
		t.Fatal("the full report carries no tile ratios; the gate would compare nothing")
	}

	compact := 0 // the retained-report size every sample must share
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
				b := samples[i].Report.MemBytes()
				if compact == 0 {
					compact = b
				}
				if b != compact {
					t.Errorf("runs=%d: sample %d retains a %dB report, the first sample %dB: the retained record's size varies with the run", runs, i, b, compact)
				}
			}
			return samples
		}
	}

	campaign(base)() // settle one-time allocations (pools, lazy globals)
	small := retainedBytes(t, campaign(base))
	large := retainedBytes(t, campaign(4*base))
	growth := large - small
	extraTasks := 3 * base * len(modes)
	ceiling := int64(extraTasks * full)
	t.Logf("retained report %dB, full report %dB (%dB of tile ratios); retained heap: runs=%d %dB, runs=%d %dB, growth %dB, ceiling (%d full reports) %dB",
		compact, full, ratioBytes, base, small, 4*base, large, growth, extraTasks, ceiling)
	if compact > full-ratioBytes {
		t.Errorf("a retained sample's report is %dB, more than a full report's %dB less its %dB of tile ratios: campaigns keep tile-ratio state", compact, full, ratioBytes)
	}
	if growth >= ceiling {
		t.Errorf("retained heap grew %dB from runs=%d to runs=%d — at least as much as the %d extra runs' full reports (%dB): the campaign is retaining report-scale state",
			growth, base, 4*base, extraTasks, ceiling)
	}
}
