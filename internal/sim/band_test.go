package sim

import "testing"

// TestBandFIFOOrderAmongEqualTimestamps pins the same-timestamp drain rule:
// events fire in exact (t, seq) order whether they were scheduled ahead
// (before virtual time reached t, so the advance to t moved them into the
// current-time bucket) or at t == now, from inside an event (appended to
// that bucket). Events scheduled ahead carry the smaller sequence numbers,
// so they must all run before any zero-delay one, and each group runs FIFO
// within itself.
func TestBandFIFOOrderAmongEqualTimestamps(t *testing.T) {
	k := NewKernel()
	var order []int
	rec := k.RegisterHandler(&recordingHandler{order: &order})
	record := func(tm Time, id int) { k.AtEvent(tm, rec, 0, int64(id), 0) }

	// Three events scheduled ahead to t=10 (seqs 1..3). The first one
	// schedules two zero-delay events plus a future event; the second
	// schedules one more zero-delay event after those.
	at(k, 10, func() {
		order = append(order, 1)
		record(10, 4) // zero-delay
		record(12, 7) // future
		record(10, 5) // zero-delay
	})
	at(k, 10, func() {
		order = append(order, 2)
		record(10, 6) // zero-delay, after 4 and 5
	})
	record(10, 3)
	k.Run()

	// Reference (t, seq) order: 1,2,3 first (scheduled before now reached
	// 10), then the zero-delay 4,5,6 in scheduling order, then 7 at t=12.
	want := []int{1, 2, 3, 4, 5, 6, 7}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", k.Pending())
	}
}

// TestBandModelAndProcInterleave checks zero-delay events keep their order
// across handlers: a model's typed events and the kernel's own proc
// resumes scheduled at the current time run in scheduling order.
func TestBandModelAndProcInterleave(t *testing.T) {
	k := NewKernel()
	var order []int
	rec := k.RegisterHandler(&recordingHandler{order: &order})
	at(k, 5, func() {
		order = append(order, 0)
		k.AfterEvent(0, rec, 0, 1, 0)                 // zero-delay, model
		at(k, 5, func() { order = append(order, 2) }) // zero-delay, proc spawn
		k.AtEvent(5, rec, 0, 3, 0)                    // zero-delay, model
	})
	k.Spawn(func(p *Proc) {
		p.Sleep(5)
		order = append(order, 4) // scheduled ahead: woke before the three above
		p.Sleep(0)               // zero-delay, proc resume
		order = append(order, 5)
	})
	k.Run()
	want := []int{0, 4, 1, 2, 3, 5}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// TestBandDeepNesting drains long zero-delay chains: each zero-delay
// event schedules the next at the same timestamp, so the whole cascade
// runs without virtual time advancing.
func TestBandDeepNesting(t *testing.T) {
	k := NewKernel()
	n := 0
	k.SpawnAt(7, func(p *Proc) {
		for n++; n < 1000; n++ {
			p.Sleep(0)
		}
	})
	k.Run()
	if n != 1000 {
		t.Fatalf("chain ran %d times, want 1000", n)
	}
	if k.Now() != 7 {
		t.Fatalf("now = %v, want 7 (zero-delay chain must not advance time)", k.Now())
	}
}

// tailHandler records typed-event deliveries and can register follow-up
// tail calls from inside a handler.
type tailHandler struct {
	k     *Kernel
	id    HandlerID
	order *[]int
	chain int // while >0, each delivery tail-calls a successor
}

func (h *tailHandler) HandleEvent(kind uint8, a, b int64) {
	*h.order = append(*h.order, int(a))
	if h.chain > 0 {
		h.chain--
		if !h.k.TryTailCall(h.id, kind, a+100, b) {
			h.k.AfterEvent(0, h.id, kind, a+100, b)
		}
	}
}

// TestTailCallOrdering checks TryTailCall runs continuations in
// registration order immediately after the current event, refuses when
// anything is pending at the current timestamp (where a queued zero-delay
// event would NOT be next), and books them as TailCalls rather than
// EventsExecuted.
func TestTailCallOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	h := &tailHandler{k: k, order: &order}
	h.id = k.RegisterHandler(h)

	at(k, 10, func() {
		// Nothing else is queued at t=10, so the continuation slot is
		// exactly where a zero-delay event would land: both succeed.
		order = append(order, 1)
		if !k.TryTailCall(h.id, 0, 2, 0) {
			t.Error("tail call refused with empty queue")
		}
		if !k.TryTailCall(h.id, 0, 3, 0) {
			t.Error("second tail call refused")
		}
	})
	at(k, 20, func() {
		// Another event is queued at t=20 (the one below), so a tail call
		// here would run before it despite having a larger virtual seq.
		order = append(order, 4)
		if k.TryTailCall(h.id, 0, 99, 0) {
			t.Error("tail call accepted with an event pending at now")
		}
	})
	at(k, 20, func() { order = append(order, 5) })
	k.Run()

	want := []int{1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("ran %d handlers, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	st := k.Stats()
	if st.TailCalls != 2 {
		t.Fatalf("TailCalls = %d, want 2", st.TailCalls)
	}
	if st.EventsExecuted != 3 {
		t.Fatalf("EventsExecuted = %d, want 3 (tail calls bypass the queue)", st.EventsExecuted)
	}
}

// TestTailCallChained checks a tail-called handler can itself tail-call:
// the continuation list extends while draining, preserving order.
func TestTailCallChained(t *testing.T) {
	k := NewKernel()
	var order []int
	h := &tailHandler{k: k, order: &order, chain: 3}
	h.id = k.RegisterHandler(h)
	k.AtEvent(1, h.id, 0, 0, 0)
	k.Run()
	want := []int{0, 100, 200, 300}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	if st := k.Stats(); st.TailCalls != 3 || st.EventsExecuted != 1 {
		t.Fatalf("stats = %+v, want 3 tail calls / 1 executed", st)
	}
}

// TestTailCallRefusedOutsideEvent pins that TryTailCall outside event
// context falls back to normal scheduling — there is no current event to
// continue from.
func TestTailCallRefusedOutsideEvent(t *testing.T) {
	k := NewKernel()
	var order []int
	h := &tailHandler{k: k, order: &order}
	h.id = k.RegisterHandler(h)
	if k.TryTailCall(h.id, 0, 1, 0) {
		t.Fatal("tail call accepted outside an event")
	}
}

// TestKernelReset checks Reset rewinds a used kernel to a state
// behaviorally identical to a fresh one: same execution order, same
// stats, same final time, with handler IDs surviving.
func TestKernelReset(t *testing.T) {
	run := func(k *Kernel, rec HandlerID, order *[]int) (Time, KernelStats) {
		*order = (*order)[:0]
		at(k, 10, func() {
			*order = append(*order, 1)
			at(k, 10, func() { *order = append(*order, 2) })
		})
		k.AtEvent(20, rec, 0, 3, 0)
		end := k.Run()
		return end, k.Stats()
	}

	fresh := NewKernel()
	var freshOrder []int
	freshRec := fresh.RegisterHandler(&recordingHandler{order: &freshOrder})
	freshEnd, freshStats := run(fresh, freshRec, &freshOrder)

	warm := NewKernel()
	var warmOrder []int
	warmRec := warm.RegisterHandler(&recordingHandler{order: &warmOrder})
	// Dirty the kernel: run a different workload, leave an event queued,
	// then reset.
	warm.AtEvent(999, warmRec, 0, 0, 0)
	warm.SpawnAt(1, func(p *Proc) { p.Sleep(0) })
	warm.RunUntil(5)
	warm.Reset()
	if warm.Now() != 0 || warm.Pending() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d, want 0/0", warm.Now(), warm.Pending())
	}
	warmEnd, warmStats := run(warm, warmRec, &warmOrder)

	if warmEnd != freshEnd {
		t.Fatalf("end time warm=%v fresh=%v", warmEnd, freshEnd)
	}
	if warmStats != freshStats {
		t.Fatalf("stats warm=%+v fresh=%+v", warmStats, freshStats)
	}
	for i := range freshOrder {
		if i >= len(warmOrder) || warmOrder[i] != freshOrder[i] {
			t.Fatalf("order warm=%v fresh=%v", warmOrder, freshOrder)
		}
	}
}

// TestResetLiveProcsPanics pins the safety check: resetting a kernel with
// a parked proc would leave its goroutine wedged inside old model state.
func TestResetLiveProcsPanics(t *testing.T) {
	k := NewKernel()
	sig := NewSignal()
	k.Spawn(func(p *Proc) { p.Wait(sig) }) // parks forever
	k.Run()
	defer func() {
		if recover() == nil {
			t.Error("Reset with a live proc did not panic")
		}
	}()
	k.Reset()
}

// TestMixedEventsReusedProcIDsOrder checks proc resumes and model events
// at one timestamp fire in (t, seq) order when the procs hold recycled
// ids. Ids are reissued LIFO from the free list, so the later procs here
// hold lower ids than the earlier ones: order must come from the sequence
// number alone, for events scheduled ahead and at now alike.
func TestMixedEventsReusedProcIDsOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	rec := k.RegisterHandler(&recordingHandler{order: &order})
	for i := 0; i < 4; i++ {
		k.SpawnAt(Time(1+i), func(*Proc) {})
	}
	k.Run() // four ids now free, reissued highest first
	at(k, 10, func() {
		order = append(order, 1)
		at(k, 10, func() { order = append(order, 5) }) // zero-delay, proc
		k.AfterEvent(0, rec, 0, 6, 0)                  // zero-delay, model
	})
	k.AtEvent(10, rec, 0, 2, 0)
	at(k, 10, func() { order = append(order, 3) })
	k.AtEvent(10, rec, 0, 4, 0)
	at(k, 12, func() { order = append(order, 7) })
	k.Run()
	want := []int{1, 2, 3, 4, 5, 6, 7}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	if len(k.procs) != 4 {
		t.Fatalf("proc table has %d entries, want the 4 recycled ids", len(k.procs))
	}
}
