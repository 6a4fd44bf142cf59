package core

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestGuardRunQueueMoves runs the exact-order guard workload (what
// `dragonsim -machine theta-mini -app MILC -nodes 16 -noise -iters 2
// -mode AD3` runs) and gates the event queue's re-bucketing moves per
// executed event at the recorded value. The event count and the digest
// pin the stream itself, so the moves figure is the queue's own cost on a
// fixed stream: a deterministic, host-independent counterpart to the
// queue's wall-clock numbers. A queue change that moves events more often
// fails here; one that moves them less should record its new value.
func TestGuardRunQueueMoves(t *testing.T) {
	if testing.Short() {
		t.Skip("a one-second theta-mini run")
	}
	const (
		wantEvents = 1265056
		wantDigest = 0xab9c72f7f457a7ad
		// Recorded moves per executed event, rounded up at the third
		// decimal.
		maxMovesPerEvent = 4.770
	)
	cfg, err := topology.ByName("theta-mini")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		App:       apps.MILC{},
		Cfg:       apps.Config{Iterations: 2, Scale: 0.1, Seed: 1},
		Nodes:     16,
		Placement: placement.Dispersed,
		Env:       mpi.UniformEnv(routing.AD3),
	}
	opts := RunOpts{Seed: 1, Background: DefaultBackground(), Warmup: sim.Millisecond}
	_, res, err := m.RunOne(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsExecuted != wantEvents || res.EventDigest != wantDigest {
		t.Fatalf("guard run fired %d events with digest %#x, want %d and %#x",
			res.EventsExecuted, res.EventDigest, uint64(wantEvents), uint64(wantDigest))
	}
	st := m.k.Stats()
	perEvent := float64(st.QueueMoves) / float64(st.EventsExecuted)
	t.Logf("queue moves %d over %d events: %.4f per event", st.QueueMoves, st.EventsExecuted, perEvent)
	if perEvent > maxMovesPerEvent {
		t.Errorf("queue moves per event %.4f, recorded %.3f", perEvent, maxMovesPerEvent)
	}
}
