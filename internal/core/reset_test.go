package core

import (
	"reflect"
	"testing"

	"repro/internal/ldms"
	"repro/internal/routing"
	"repro/internal/sim"
)

// TestMachineResetEquivalence pins the warm-reuse contract: a Run on a
// machine whose kernel and fabric were rewound in place after previous
// (different) runs must produce a RunResult deeply equal to the same Run
// on a cold machine. This is the invariant that makes per-worker machine
// reuse safe for the ensemble runner — any state leaking across a reset
// (queue remnants, counter residue, RNG position, pool stats) shows up
// here as a diff. RunResult.GlobalCounters is the raw counter state at
// the end of the run, not a delta, so a Counters.Reset that missed a
// field (the ORB arrays, say) fails this comparison.
func TestMachineResetEquivalence(t *testing.T) {
	target := milcSpec(8, routing.AD3)
	opts := RunOpts{Seed: 99, Background: DefaultBackground()}

	cold := testMachine(t)
	_, coldRes, err := cold.RunOne(target, opts)
	if err != nil {
		t.Fatal(err)
	}

	warm := testMachine(t)
	// Dirty the machine with runs that differ in seed, mode, background,
	// and traffic volume, so every piece of resettable state diverges
	// from its initial value before the comparison run.
	if _, _, err := warm.RunOne(milcSpec(8, routing.AD0), RunOpts{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := warm.RunOne(milcSpec(4, routing.AD2), RunOpts{Seed: 123, Background: DefaultBackground()}); err != nil {
		t.Fatal(err)
	}
	_, warmRes, err := warm.RunOne(target, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The digest says it first and exactly: a warm kernel fires the cold
	// run's events in the cold run's order.
	if warmRes.EventDigest != coldRes.EventDigest {
		t.Errorf("warm event digest %#x, cold %#x", warmRes.EventDigest, coldRes.EventDigest)
	}
	if !reflect.DeepEqual(warmRes, coldRes) {
		t.Errorf("warm (reset-then-run) RunResult differs from cold run:\nwarm: %+v\ncold: %+v",
			warmRes, coldRes)
	}
}

// TestMachineResetForcesRebuild pins Machine.Reset as the explicit cold
// path, and that editing the public configuration between runs is
// detected (the run after a change must behave like a fresh machine with
// the new parameters, not replay the old fabric).
func TestMachineResetForcesRebuild(t *testing.T) {
	m := testMachine(t)
	spec := milcSpec(8, routing.AD0)
	_, r1, err := m.RunOne(spec, RunOpts{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m.Reset() // discard the warm pair
	_, r2, err := m.RunOne(spec, RunOpts{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("run after explicit Reset differs from the original")
	}

	// A parameter edit must invalidate the warm fabric: the edited run
	// has to differ (tiny buffers force different backpressure), and
	// restoring the parameters must reproduce the original exactly.
	saved := m.Net
	m.Net.BufferFlits = 64
	_, rSmall, err := m.RunOne(spec, RunOpts{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.GlobalCounters, rSmall.GlobalCounters) {
		t.Error("shrinking BufferFlits between runs had no effect (stale warm fabric?)")
	}
	m.Net = saved
	_, r3, err := m.RunOne(spec, RunOpts{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Error("restoring parameters did not reproduce the original run")
	}
}

// TestCampaignResetEquivalence covers the second entry point: RunCampaign
// on a warm machine must match a cold one.
func TestCampaignResetEquivalence(t *testing.T) {
	runCampaign := func(m *Machine) *CampaignResult {
		t.Helper()
		res, err := m.RunCampaign(40*sim.Millisecond, *DefaultBackground(),
			ldms.Options{Period: 10 * sim.Millisecond}, 21)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := testMachine(t)
	coldRes := runCampaign(cold)

	warm := testMachine(t)
	if _, _, err := warm.RunOne(milcSpec(8, routing.AD0), RunOpts{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	warmRes := runCampaign(warm)

	if !reflect.DeepEqual(warmRes.Global, coldRes.Global) {
		t.Errorf("warm campaign counters differ from cold:\nwarm: %+v\ncold: %+v",
			warmRes.Global, coldRes.Global)
	}
	if warmRes.Duration != coldRes.Duration {
		t.Errorf("durations differ: %v vs %v", warmRes.Duration, coldRes.Duration)
	}
}
