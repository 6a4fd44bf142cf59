package sim

import "testing"

// countingHandler is a minimal typed-event consumer that optionally
// reschedules itself 1ns on, driving a steady event stream.
type countingHandler struct {
	k     *Kernel
	id    HandlerID
	n     int
	chain int // while n < chain, each event schedules a successor
}

func (h *countingHandler) HandleEvent(kind uint8, a, b int64) {
	h.n++
	if h.n < h.chain {
		h.k.AfterEvent(Nanosecond, h.id, kind, a, b)
	}
}

// TestTypedEventDispatchAllocFree pins the kernel's typed-event fast path
// at zero allocations per dispatch in steady state: once the queue's
// buckets have grown to their working size, scheduling and executing
// AtEvent/AfterEvent events must never touch the allocator, and a warm
// Reset keeps that size. This is the foundation the fabric's zero-alloc
// packet path is built on; a regression here shows up as
// allocs-per-packet one layer up.
func TestTypedEventDispatchAllocFree(t *testing.T) {
	k := NewKernel()
	h := &countingHandler{k: k}
	h.id = k.RegisterHandler(h)

	// Warm the queue past the working depth of the measured loop.
	for i := 0; i < 1024; i++ {
		k.AtEvent(k.Now()+Time(i), h.id, 0, 0, 0)
	}
	k.Run()

	const perRun = 256
	measure := func() float64 {
		return testing.AllocsPerRun(100, func() {
			for i := 0; i < perRun; i++ {
				k.AfterEvent(Time(i%7), h.id, 0, int64(i), 0)
			}
			k.Run()
		})
	}
	if allocs := measure(); allocs != 0 {
		t.Fatalf("typed event schedule+dispatch allocated %.2f times per %d events, want 0",
			allocs, perRun)
	}
	k.Reset()
	if allocs := measure(); allocs != 0 {
		t.Fatalf("after a warm Reset, typed event schedule+dispatch allocated %.2f times per %d events, want 0",
			allocs, perRun)
	}
}

// TestTypedEventOrdering checks that model events and proc spawns
// interleave in strict (time, scheduling sequence) order regardless of
// which handler they dispatch to.
func TestTypedEventOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	rec := k.RegisterHandler(&recordingHandler{order: &order})
	at(k, 5, func() { order = append(order, 1) })
	k.AtEvent(5, rec, 0, 2, 0)
	at(k, 5, func() { order = append(order, 3) })
	k.AtEvent(3, rec, 0, 0, 0)
	k.Run()
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

type recordingHandler struct{ order *[]int }

func (h *recordingHandler) HandleEvent(kind uint8, a, b int64) {
	*h.order = append(*h.order, int(a))
}

// TestSignalFireAllocFree pins Signal.Fire at zero allocations per fire
// in steady state. Fire runs on the fabric's packet-delivery hot path
// (every completed message fires its Done signal), and it once allocated
// one closure per waiter per fire, two calls below the fabric's deliver.
// scripts/allocs.sh would now list such a closure as a runtime.newobject
// call in Fire; this test checks the path as it runs. Signals are
// one-shot, so the test prepares one signal with parked waiters per
// AllocsPerRun round rather than reusing one.
func TestSignalFireAllocFree(t *testing.T) {
	k := NewKernel()
	const waiters = 8
	const rounds = 50
	// rounds+1: AllocsPerRun calls the body once for warmup (which also
	// grows the current-time bucket to its working size) before measuring.
	sigs := make([]*Signal, rounds+1)
	for i := range sigs {
		s := NewSignal()
		sigs[i] = s
		for j := 0; j < waiters; j++ {
			k.Spawn(func(p *Proc) { p.Wait(s) })
		}
	}
	k.Run() // park every waiter on its signal

	next := 0
	allocs := testing.AllocsPerRun(rounds, func() {
		s := sigs[next]
		next++
		s.Fire(k)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("Signal.Fire allocated %.2f times per fire with %d waiters, want 0",
			allocs, waiters)
	}
}

// TestSleepAllocFree pins a warm Sleep/resume cycle at zero allocations:
// the resume is a typed event naming the proc's id, and the handoff is two
// channel transfers on channels made at spawn.
func TestSleepAllocFree(t *testing.T) {
	k := NewKernel()
	stop := false
	k.Spawn(func(p *Proc) {
		for !stop {
			p.Sleep(Nanosecond)
		}
	})
	k.RunUntil(100 * Nanosecond) // grow the queue to working size
	const cycles = 64
	allocs := testing.AllocsPerRun(50, func() {
		k.RunUntil(k.Now() + cycles*Nanosecond)
	})
	stop = true
	k.Run()
	if allocs != 0 {
		t.Fatalf("%d Sleep/resume cycles allocated %.2f times, want 0", cycles, allocs)
	}

	// A warm Reset keeps the queue's buckets: the same cycle on a rewound
	// kernel, with a fresh proc, allocates nothing either.
	k.Reset()
	stop = false
	k.Spawn(func(p *Proc) {
		for !stop {
			p.Sleep(Nanosecond)
		}
	})
	k.RunUntil(100 * Nanosecond)
	allocs = testing.AllocsPerRun(50, func() {
		k.RunUntil(k.Now() + cycles*Nanosecond)
	})
	stop = true
	k.Run()
	if allocs != 0 {
		t.Fatalf("after a warm Reset, %d Sleep/resume cycles allocated %.2f times, want 0", cycles, allocs)
	}
}
