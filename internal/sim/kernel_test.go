package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2ns"},
		{1500 * Nanosecond, "1.5us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{-2 * Second, "-2s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", got)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds() = %v", got)
	}
}

// at runs fn as the body of a proc spawned at t: one event, scheduled at
// the caller's point in the (t, seq) order, running in event context.
func at(k *Kernel, t Time, fn func()) {
	k.SpawnAt(t, func(*Proc) { fn() })
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	rec := k.RegisterHandler(&recordingHandler{order: &order})
	k.AtEvent(10*Nanosecond, rec, 0, 2, 0)
	k.AtEvent(5*Nanosecond, rec, 0, 1, 0)
	k.AtEvent(10*Nanosecond, rec, 0, 3, 0) // same time: FIFO
	k.AtEvent(20*Nanosecond, rec, 0, 4, 0)
	end := k.Run()
	if end != 20*Nanosecond {
		t.Fatalf("end time = %v, want 20ns", end)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	h := &countingHandler{k: k}
	h.id = k.RegisterHandler(h)
	at(k, 10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.AtEvent(5*Nanosecond, h.id, 0, 0, 0)
	})
	k.Run()
	if h.n != 0 {
		t.Fatalf("past event fired %d times", h.n)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	h := &countingHandler{k: k}
	h.id = k.RegisterHandler(h)
	k.AtEvent(10*Nanosecond, h.id, 0, 0, 0)
	k.AtEvent(30*Nanosecond, h.id, 0, 0, 0)
	k.RunUntil(20 * Nanosecond)
	if h.n != 1 {
		t.Fatalf("fired = %d, want 1", h.n)
	}
	if k.Now() != 20*Nanosecond {
		t.Fatalf("now = %v, want 20ns (idle advance)", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Run()
	if h.n != 2 || k.Now() != 30*Nanosecond {
		t.Fatalf("after Run: fired=%d now=%v", h.n, k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	n := 0
	at(k, 1*Nanosecond, func() { n++; k.Stop() })
	at(k, 2*Nanosecond, func() { n++ })
	k.Run()
	if n != 1 {
		t.Fatalf("n = %d, want 1 (Stop should halt)", n)
	}
}

// TestStopInsideRunUntil pins that a Stop cuts RunUntil short with the
// clock at the stopping event, so the events left before the deadline
// still fire at their own times.
func TestStopInsideRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	at(k, 1*Nanosecond, func() { k.Stop() })
	at(k, 2*Nanosecond, func() { fired = append(fired, k.Now()) })
	if got := k.RunUntil(5 * Nanosecond); got != 1*Nanosecond {
		t.Fatalf("RunUntil stopped at 1ns returned %v", got)
	}
	k.Run()
	if len(fired) != 1 || fired[0] != 2*Nanosecond {
		t.Fatalf("event after the Stop fired at %v, want [2ns]", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	h := &countingHandler{k: k, chain: 100} // each event schedules the next 1ns on
	h.id = k.RegisterHandler(h)
	k.AtEvent(0, h.id, 0, 0, 0)
	k.Run()
	if h.n != 100 {
		t.Fatalf("depth = %d, want 100", h.n)
	}
	if k.Now() != 99*Nanosecond {
		t.Fatalf("now = %v, want 99ns", k.Now())
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var wake Time
	k.Spawn(func(p *Proc) {
		p.Sleep(5 * Microsecond)
		wake = p.Now()
	})
	k.Run()
	if wake != 5*Microsecond {
		t.Fatalf("woke at %v, want 5us", wake)
	}
}

func TestProcSignal(t *testing.T) {
	k := NewKernel()
	s := NewSignal()
	var got []string
	k.Spawn(func(p *Proc) {
		p.Wait(s)
		got = append(got, "waiter@"+p.Now().String())
	})
	k.Spawn(func(p *Proc) {
		p.Sleep(3 * Nanosecond)
		got = append(got, "firer")
		s.Fire(k)
	})
	k.Run()
	if len(got) != 2 || got[0] != "firer" || got[1] != "waiter@3ns" {
		t.Fatalf("got = %v", got)
	}
}

func TestSignalAlreadyFired(t *testing.T) {
	k := NewKernel()
	s := NewSignal()
	s.Fire(k)
	s.Fire(k) // double-fire is a no-op
	ran := false
	k.Spawn(func(p *Proc) {
		p.Wait(s) // returns immediately
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("proc waiting on fired signal never ran")
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			d := Time(rng.Intn(1000)) * Nanosecond
			k.Spawn(func(p *Proc) {
				p.Sleep(d)
				order = append(order, i)
			})
		}
		k.Run()
		return order
	}
	a, b := run(42), run(42)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %v vs %v", i, a, b)
		}
	}
}

func TestProcChain(t *testing.T) {
	// A chain of procs each waking the next via a signal: exercises
	// proc→proc control transfer through the kernel.
	k := NewKernel()
	const n = 64
	sigs := make([]*Signal, n+1)
	for i := range sigs {
		sigs[i] = NewSignal()
	}
	hops := 0
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(func(p *Proc) {
			p.Wait(sigs[i])
			hops++
			p.Sleep(1 * Nanosecond)
			sigs[i+1].Fire(k)
		})
	}
	at(k, 0, func() { sigs[0].Fire(k) })
	k.Run()
	if hops != n {
		t.Fatalf("hops = %d, want %d", hops, n)
	}
	if !sigs[n].Fired() {
		t.Fatal("final signal not fired")
	}
	if k.Now() != Time(n)*Nanosecond {
		t.Fatalf("now = %v, want %dns", k.Now(), n)
	}
}

func TestKernelStats(t *testing.T) {
	k := NewKernel()
	k.Spawn(func(p *Proc) { p.Sleep(1 * Nanosecond) })
	h := &countingHandler{k: k}
	h.id = k.RegisterHandler(h)
	k.AtEvent(0, h.id, 0, 0, 0)
	k.Run()
	st := k.Stats()
	if st.ProcsSpawned != 1 {
		t.Fatalf("ProcsSpawned = %d", st.ProcsSpawned)
	}
	if st.EventsExecuted < 2 {
		t.Fatalf("EventsExecuted = %d, want >= 2", st.EventsExecuted)
	}
	if st.ProcSwitches < 2 {
		t.Fatalf("ProcSwitches = %d, want >= 2", st.ProcSwitches)
	}
}

// TestTimestampTies pins the tie detector's semantics: only events
// scheduled ahead, beyond the first of an exact-timestamp group, count;
// deliberate zero-delay continuations (events scheduled at now) and idle
// RunUntil clock advances do not.
func TestTimestampTies(t *testing.T) {
	k := NewKernel()
	h := &countingHandler{k: k}
	h.id = k.RegisterHandler(h)
	at(k, 5*Nanosecond, func() {
		k.AtEvent(k.Now(), h.id, 0, 0, 0) // zero-delay continuation: not a tie
	})
	k.AtEvent(5*Nanosecond, h.id, 0, 0, 0) // second queue event at 5ns: one tie
	k.AtEvent(5*Nanosecond, h.id, 0, 0, 0) // third: another
	k.AtEvent(7*Nanosecond, h.id, 0, 0, 0) // fresh time: not a tie
	k.Run()
	if got := k.Stats().TimestampTies; got != 2 {
		t.Fatalf("TimestampTies = %d, want 2", got)
	}

	// An idle RunUntil advance sets the clock without any event firing at
	// the new reading; later events must not count against it.
	k.Reset()
	k.RunUntil(100 * Nanosecond)
	k.AtEvent(150*Nanosecond, h.id, 0, 0, 0)
	k.Run()
	if got := k.Stats().TimestampTies; got != 0 {
		t.Fatalf("TimestampTies after idle advance = %d, want 0", got)
	}

	// Zero-delay events scheduled in the middle of a group, while an
	// event scheduled ahead to now is still queued, run behind it and
	// are not ties; it is.
	k.Reset()
	k.AtEvent(3*Nanosecond, h.id, 0, 0, 0) // first at 3ns: not a tie
	at(k, 3*Nanosecond, func() {           // second: a tie
		k.AtEvent(k.Now(), h.id, 0, 0, 0) // zero-delay: not a tie
		at(k, k.Now(), func() {})         // zero-delay proc spawn: not a tie
	})
	k.AtEvent(3*Nanosecond, h.id, 0, 0, 0) // third, queued ahead of both: a tie
	k.Run()
	if got := k.Stats().TimestampTies; got != 2 {
		t.Fatalf("TimestampTies with zero-delay events inside a group = %d, want 2", got)
	}

	// Events scheduled at t=0 before Run are scheduled at now, not ahead.
	k.Reset()
	for i := 0; i < 3; i++ {
		k.AtEvent(0, h.id, 0, 0, 0)
	}
	k.AtEvent(Nanosecond, h.id, 0, 0, 0) // first at 1ns: not a tie
	k.AtEvent(Nanosecond, h.id, 0, 0, 0) // second: a tie
	k.Run()
	if got := k.Stats().TimestampTies; got != 1 {
		t.Fatalf("TimestampTies with events at t=0 = %d, want 1", got)
	}

	// A chain of zero-delay events after an idle advance: all scheduled
	// at the new reading, none ahead, so none is a tie.
	k.Reset()
	k.RunUntil(10 * Nanosecond)
	k.AtEvent(k.Now(), h.id, 0, 0, 0)
	k.Spawn(func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(0)
		}
	})
	k.AtEvent(k.Now(), h.id, 0, 0, 0)
	k.Run()
	if got := k.Stats().TimestampTies; got != 0 {
		t.Fatalf("TimestampTies for a zero-delay chain after an idle advance = %d, want 0", got)
	}
	if k.Now() != 10*Nanosecond {
		t.Fatalf("zero-delay chain ended at %v, want 10ns", k.Now())
	}
}

// Property: for any batch of (delay, id) pairs, procs complete in
// nondecreasing delay order, ties broken by spawn order.
func TestProcOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 200 {
			delays = delays[:200]
		}
		k := NewKernel()
		type rec struct {
			d  Time
			id int
		}
		var finished []rec
		for i, d := range delays {
			i, dt := i, Time(d)*Nanosecond
			k.Spawn(func(p *Proc) {
				p.Sleep(dt)
				finished = append(finished, rec{dt, i})
			})
		}
		k.Run()
		if len(finished) != len(delays) {
			return false
		}
		for i := 1; i < len(finished); i++ {
			if finished[i].d < finished[i-1].d {
				return false
			}
			if finished[i].d == finished[i-1].d && finished[i].id < finished[i-1].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestEventLayout pins the queued event at 24 bytes with no pointer
// field: the radix queue's appends and re-bucketing moves copy it with
// plain word copies and the collector never scans the buckets.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("event is %d bytes, want 24", got)
	}
	typ := reflect.TypeOf(event{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int64, reflect.Uint64:
		default:
			t.Errorf("event.%s is a %v; queued events must hold only scalars", f.Name, f.Type)
		}
	}
}

// TestProcTableRecycled checks a finished proc's id is reissued to the
// next spawn, so the proc table stays at the peak number of procs live at
// once however many run, and Reset empties it.
func TestProcTableRecycled(t *testing.T) {
	k := NewKernel()
	const peak = 3
	for i := 0; i < peak; i++ {
		k.Spawn(func(p *Proc) { p.Sleep(Nanosecond) })
	}
	k.Run()
	for i := 0; i < 100; i++ {
		k.Spawn(func(p *Proc) { p.Sleep(Nanosecond) })
		k.Run()
	}
	if len(k.procs) != peak {
		t.Fatalf("proc table grew to %d entries for %d live at once", len(k.procs), peak)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after drain, want 0", k.LiveProcs())
	}
	for id, p := range k.procs {
		if p != nil {
			t.Fatalf("finished proc still held at id %d", id)
		}
	}
	k.Reset()
	if len(k.procs) != 0 || len(k.freeProcs) != 0 {
		t.Fatalf("after Reset: %d proc entries, %d free ids; want 0/0", len(k.procs), len(k.freeProcs))
	}
}

// TestSpawnAtPastLeavesNoProc checks a SpawnAt into the past panics
// before it takes a proc id or starts a goroutine, so the kernel can
// still be Reset and nothing is left parked.
func TestSpawnAtPastLeavesNoProc(t *testing.T) {
	k := NewKernel()
	h := &countingHandler{k: k}
	h.id = k.RegisterHandler(h)
	k.AtEvent(10*Nanosecond, h.id, 0, 0, 0)
	k.Run()
	goroutines := settledGoroutines()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SpawnAt into the past did not panic")
			}
		}()
		k.SpawnAt(5*Nanosecond, func(p *Proc) { t.Error("past proc ran") })
	}()
	if n := k.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after a rejected SpawnAt, want 0", n)
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Fatalf("goroutines %d -> %d across a rejected SpawnAt", goroutines, n)
	}
	k.Reset()
}

// settledGoroutines returns the goroutine count once the finished procs
// of earlier tests have exited: a proc's goroutine hands control back to
// its kernel and only then returns, so its exit can trail its test.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestRegisterHandlerReservedID checks the kernel holds handler id 0 for
// its own proc resumes and registration stops at the 8-bit id limit.
func TestRegisterHandlerReservedID(t *testing.T) {
	k := NewKernel()
	h := &recordingHandler{order: new([]int)}
	for i := 1; i < maxHandlers; i++ {
		if id := k.RegisterHandler(h); id != HandlerID(i) {
			t.Fatalf("registration %d got id %d", i, id)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterHandler issued an id past the payload's 8 bits")
		}
	}()
	k.RegisterHandler(h)
}

// TestDigest pins the event-stream digest's contract: the same stream
// gives the same digest on a fresh and on a Reset kernel, and moving one
// event, to another time or past another event, changes it.
func TestDigest(t *testing.T) {
	h := &recordingHandler{order: new([]int)}
	run := func(k *Kernel, order []int64, last Time) uint64 {
		id := HandlerID(1)
		if len(k.handlers) == 1 {
			id = k.RegisterHandler(h)
		}
		for i, a := range order {
			k.AtEvent(Time(i+1)*Nanosecond, id, 0, a, 0)
		}
		k.AtEvent(last, id, 0, 9, 0)
		k.Run()
		return k.Stats().Digest
	}
	k := NewKernel()
	base := run(k, []int64{1, 2, 3}, Microsecond)
	k.Reset()
	if got := run(k, []int64{1, 2, 3}, Microsecond); got != base {
		t.Errorf("digest after Reset %#x, fresh %#x", got, base)
	}
	if got := run(NewKernel(), []int64{1, 3, 2}, Microsecond); got == base {
		t.Error("swapping two events' payloads left the digest unchanged")
	}
	if got := run(NewKernel(), []int64{1, 2, 3}, Microsecond+1); got == base {
		t.Error("moving one event by 1ps left the digest unchanged")
	}
}
