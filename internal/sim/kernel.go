package sim

import (
	"fmt"
)

// Handler receives typed events scheduled with AtEvent/AfterEvent. It is
// the allocation-free alternative to closure callbacks: the scheduler
// stores a registered handler's index plus a small scalar payload inline
// in the event, so hot model code (the network fabric) schedules without
// touching the heap. kind discriminates event types within one handler; a
// and b carry whatever the handler needs to find its state again (indexes
// into model-owned arenas, typically).
type Handler interface {
	HandleEvent(kind uint8, a, b int64)
}

// HandlerID names a handler registered with RegisterHandler. IDs are
// stored in events instead of the interface value itself so the event
// struct stays small and pointer-free.
type HandlerID int32

// Event payload packing. Every heap event carries one uint64 payload and
// no pointer, so the event struct is 24 bytes: the heap's sift swaps, the
// hottest loop in the simulator, move it with plain word copies, and the
// garbage collector never scans the queue. A typed event packs (kind,
// handler, a, b); a closure event names a slot of the kernel's closure
// table through the reserved handler id closureHandler. The packing caps a
// kernel at 255 registered handlers, 256 kinds per handler, and typed
// payload scalars in [0, 2^24); AtEvent and RegisterHandler panic past any
// of these limits (they are far above what any realistic fabric needs — a
// and b index servers and live packets).
const (
	payloadBits = 24
	maxPayload  = 1<<payloadBits - 1
	// closureHandler, the largest id the 8 handler bits hold, is reserved
	// for closure events: their payload is closureHandler<<48 | slot, with
	// the func in Kernel.closures[slot]. RegisterHandler never issues it.
	closureHandler = 0xff
	closureSlot    = 1<<48 - 1 // payload bits holding a closure slot
)

// event is one scheduled callback, identified by its packed payload (see
// above). Keep this struct at 24 bytes and free of pointers — every
// push/pop sift swap copies it.
type event struct {
	t   Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	pay uint64 // kind<<56 | handler<<48 | a<<24 | b, or closureHandler<<48 | slot
}

// less orders events by (t, seq): deterministic FIFO among equal times.
func (e *event) less(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// eventHeap is an inline 4-ary min-heap of event values. A 4-ary layout
// halves the tree depth of sift-down (the hot operation in a DES where
// most pushes are near-future) and avoids container/heap's interface
// boxing; together with the same-timestamp band below it is the hottest
// structure in the simulator.
type eventHeap []event

//simlint:hotpath
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	s := *h
	for i > 0 {
		parent := (i - 1) / 4
		if !s[i].less(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

//simlint:hotpath
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= len(s) {
			break
		}
		min := first
		end := first + 4
		if end > len(s) {
			end = len(s)
		}
		for c := first + 1; c < end; c++ {
			if s[c].less(&s[min]) {
				min = c
			}
		}
		if !s[min].less(&s[i]) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// bandEntry is one event in the same-timestamp band: a callback known to
// fire at the current virtual time, so it carries neither a timestamp nor
// a sequence number (FIFO position in the band IS its sequence order).
type bandEntry struct {
	fn  func()
	pay uint64
}

// band is the same-timestamp insertion band: a FIFO ring of events
// scheduled for the CURRENT virtual time. Scheduling at t == now is the
// hot degenerate case of a DES heap — zero-delay wakes, signal fires, and
// proc handoffs all land there, and pushing them through the 4-ary heap
// costs a full sift up and a full sift down each even though their
// ordering is forced (they always run after everything already queued at
// now, in scheduling order). The band makes them two pointer moves
// instead. The drain rule in step preserves exact (t, seq) order: heap
// events at the current time were all scheduled before now advanced — so
// with strictly smaller sequence numbers than any band entry — and run
// first; band entries then run in append order. The band fully drains
// before virtual time advances, so the backing array is reused forever
// after warmup.
type band struct {
	buf  []bandEntry
	head int
}

func (b *band) empty() bool { return b.head == len(b.buf) }
func (b *band) len() int    { return len(b.buf) - b.head }

//simlint:hotpath
func (b *band) push(e bandEntry) { b.buf = append(b.buf, e) }

//simlint:hotpath
func (b *band) take() bandEntry {
	e := b.buf[b.head]
	b.buf[b.head] = bandEntry{} // release the closure for GC
	b.head++
	if b.head == len(b.buf) {
		b.buf = b.buf[:0]
		b.head = 0
	}
	return e
}

func (b *band) reset() {
	for i := range b.buf {
		b.buf[i] = bandEntry{}
	}
	b.buf = b.buf[:0]
	b.head = 0
}

// tailCall is a typed event deferred to run immediately after the current
// event's handler returns (see TryTailCall).
type tailCall struct {
	h    HandlerID
	kind uint8
	a, b int64
}

// Kernel is a deterministic discrete-event simulator.
//
// The zero value is not usable; construct with NewKernel. A Kernel is not
// safe for concurrent use: all model code must run on the kernel goroutine
// or inside a Proc it controls.
type Kernel struct {
	now     Time
	seq     uint64
	events  eventHeap
	band    band       // events at t == now, FIFO (see band)
	tail    []tailCall // deferred continuations of the current event
	inEvent bool       // an event handler is currently executing
	// handlers is the typed-event dispatch table, by HandlerID.
	handlers []Handler //simlint:resetsafe registrations survive Reset by contract: warm fabrics keep their HandlerID
	// closures holds the funcs of closure events queued in the heap, by
	// slot; freeSlots lists the vacant ones. A slot is vacated as its
	// event fires, so the table stays at the peak number of closures
	// pending at once.
	closures  []func()
	freeSlots []int32
	stopped   bool
	parked    chan struct{} //simlint:resetsafe channel identity; parked procs forbid Reset anyway (panic guard)
	nProcs    int           //simlint:resetsafe live procs; Reset panics unless zero, so zero is preserved
	// tieArmed is true when the clock's current reading was set by a heap
	// event (as opposed to an idle RunUntil advance or a fresh kernel),
	// so a further heap event at the same reading is a genuine
	// same-timestamp tie for KernelStats.TimestampTies.
	tieArmed bool
	stats    KernelStats
}

// KernelStats counts kernel-level activity, useful in benchmarks and tests.
type KernelStats struct {
	EventsExecuted uint64
	// TailCalls counts typed events that ran as direct continuations of
	// the event that scheduled them (TryTailCall) instead of through the
	// queue. They do the same model work as a zero-delay event but are
	// not counted in EventsExecuted, which tallies queue traffic.
	TailCalls    uint64
	ProcsSpawned uint64
	ProcSwitches uint64
	// TimestampTies counts heap events that fired at a virtual time some
	// earlier heap event had already fired at — i.e., members beyond the
	// first of each exact-timestamp group. Such groups are the only
	// places where scheduling order (the seq tiebreak) rather than
	// physics decides execution order, which makes this the detector for
	// "this run's outcome may depend on event-scheduling details":
	// network.FuseLinks changes WHERE its events are scheduled, so its
	// equivalence tests assert byte-identity exactly when both runs
	// report zero ties. Deliberate zero-delay continuations (the
	// same-timestamp band, tail calls) are not counted — they follow
	// their trigger by construction.
	TimestampTies uint64
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{parked: make(chan struct{})}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Stats returns a copy of the kernel's activity counters.
func (k *Kernel) Stats() KernelStats { return k.stats }

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return len(k.events) + k.band.len() }

// panicPast reports scheduling before the current time. Outlined from the
// schedulers so the hot typed-event path stays free of fmt in its body.
//
//simlint:cold panic formatting on a model-bug path that never returns
func (k *Kernel) panicPast(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
}

// panicPayload reports a typed-event scalar outside the packable range.
//
//simlint:cold panic formatting on a model-bug path that never returns
func panicPayload(a, b int64) {
	panic(fmt.Sprintf("sim: typed-event payload (%d, %d) outside [0, 2^%d)", a, b, payloadBits))
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// that is always a model bug, and silently reordering would break
// determinism guarantees.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		k.panicPast(t)
	}
	if t == k.now {
		k.band.push(bandEntry{fn: fn})
		return
	}
	k.seq++
	k.events.push(event{t: t, seq: k.seq, pay: k.stashClosure(fn)})
}

// stashClosure parks fn in a vacant closure slot and returns the event
// payload naming it.
func (k *Kernel) stashClosure(fn func()) uint64 {
	if n := len(k.freeSlots); n > 0 {
		slot := k.freeSlots[n-1]
		k.freeSlots = k.freeSlots[:n-1]
		k.closures[slot] = fn
		return closureHandler<<48 | uint64(slot)
	}
	k.closures = append(k.closures, fn)
	return closureHandler<<48 | uint64(len(k.closures)-1)
}

// takeClosure returns the func of a closure event's payload and vacates
// its slot, or nil for a typed event.
//
//simlint:hotpath
func (k *Kernel) takeClosure(pay uint64) func() {
	if pay>>48 != closureHandler {
		return nil
	}
	slot := pay & closureSlot
	fn := k.closures[slot]
	k.closures[slot] = nil
	k.freeSlots = append(k.freeSlots, int32(slot))
	return fn
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// RegisterHandler adds h to the kernel's typed-event dispatch table and
// returns its id. Models register once at construction and schedule with
// the id; registration itself may allocate (table growth) but scheduling
// never does.
func (k *Kernel) RegisterHandler(h Handler) HandlerID {
	if len(k.handlers) >= closureHandler {
		panic("sim: too many registered handlers")
	}
	k.handlers = append(k.handlers, h)
	return HandlerID(len(k.handlers) - 1)
}

// AtEvent schedules a typed event at absolute time t. It is the
// allocation-free fast path: the handler id and scalar payload are stored
// inline in the event queue, so (unlike At, whose closures escape) nothing
// is heap-allocated in steady state. Ordering is identical to At: events
// fire in (time, scheduling sequence) order regardless of which API queued
// them.
//
//simlint:hotpath
func (k *Kernel) AtEvent(t Time, h HandlerID, kind uint8, a, b int64) {
	if t < k.now {
		k.panicPast(t)
	}
	if uint64(a) > maxPayload || uint64(b) > maxPayload {
		panicPayload(a, b)
	}
	pay := uint64(kind)<<56 | uint64(h)<<48 | uint64(a)<<payloadBits | uint64(b)
	if t == k.now {
		k.band.push(bandEntry{pay: pay})
		return
	}
	k.seq++
	k.events.push(event{t: t, seq: k.seq, pay: pay})
}

// TryTailCall defers a typed event to run as a direct continuation: it
// fires immediately after the currently executing event's handler returns,
// without ever entering the queue. That is exactly the queue position a
// zero-delay AtEvent would occupy — but ONLY when nothing else is pending
// at the current timestamp, so the call succeeds (and returns true) only
// then. On false the caller must schedule normally. Multiple tail calls
// registered during one event run in registration order, still matching
// zero-delay event semantics.
//
//simlint:hotpath
func (k *Kernel) TryTailCall(h HandlerID, kind uint8, a, b int64) bool {
	if !k.inEvent || !k.band.empty() {
		return false
	}
	if len(k.events) > 0 && k.events[0].t == k.now {
		return false
	}
	k.tail = append(k.tail, tailCall{h: h, kind: kind, a: a, b: b})
	return true
}

// AfterEvent schedules a typed event d after the current time.
//
//simlint:hotpath
func (k *Kernel) AfterEvent(d Time, h HandlerID, kind uint8, a, b int64) {
	k.AtEvent(k.now+d, h, kind, a, b)
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// exec runs one event callback, then drains any tail calls it (or its
// continuations) registered.
//
//simlint:hotpath
func (k *Kernel) exec(fn func(), pay uint64) {
	k.stats.EventsExecuted++
	k.inEvent = true
	if fn != nil {
		fn()
	} else {
		k.handlers[pay>>48&0xff].HandleEvent(uint8(pay>>56),
			int64(pay>>payloadBits&maxPayload), int64(pay&maxPayload))
	}
	// Tail calls run back-to-back with the event that registered them;
	// appends during the loop (a continuation registering its own tail
	// call) extend it in order.
	for i := 0; i < len(k.tail); i++ {
		tc := k.tail[i]
		k.stats.TailCalls++
		k.handlers[tc.h].HandleEvent(tc.kind, tc.a, tc.b)
	}
	k.tail = k.tail[:0]
	k.inEvent = false
}

// step executes the earliest event. Returns false when no events remain.
//
// Batch drain of the current timestamp: heap events at t == now first
// (they were scheduled before now advanced, so they hold the smaller
// sequence numbers), then the band in FIFO order — exact (t, seq) order
// without one sift per zero-delay event. Virtual time advances only once
// both are empty.
//
//simlint:hotpath
func (k *Kernel) step() bool {
	if len(k.events) > 0 && k.events[0].t == k.now {
		// A heap event at the clock's current reading: if an earlier heap
		// event already fired at this exact time, seq order is deciding.
		if k.tieArmed {
			k.stats.TimestampTies++
		}
		e := k.events.pop()
		k.exec(k.takeClosure(e.pay), e.pay)
		return true
	}
	if !k.band.empty() {
		e := k.band.take()
		k.exec(e.fn, e.pay)
		return true
	}
	if len(k.events) == 0 {
		return false
	}
	e := k.events.pop()
	k.now = e.t
	k.tieArmed = true
	k.exec(k.takeClosure(e.pay), e.pay)
	return true
}

// Run executes events until the queue drains or Stop is called. It returns
// the final virtual time.
func (k *Kernel) Run() Time {
	k.stopped = false
	for !k.stopped && k.step() {
	}
	return k.now
}

// RunUntil executes events with timestamps ≤ deadline, then advances the
// clock to deadline (even if idle) and returns. Events scheduled beyond the
// deadline remain queued.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.stopped = false
	for !k.stopped {
		if k.band.empty() && (len(k.events) == 0 || k.events[0].t > deadline) {
			break
		}
		k.step()
	}
	if k.now < deadline {
		k.now = deadline
		k.tieArmed = false // idle advance: nothing fired at this reading
	}
	return k.now
}

// LiveProcs returns the number of spawned procs that have not finished.
// A fully drained kernel with live procs means model code is parked on a
// signal that never fired; such a kernel cannot be safely Reset.
func (k *Kernel) LiveProcs() int { return k.nProcs }

// Reset rewinds the kernel to time zero with an empty queue and zeroed
// stats, retaining registered handlers and all queue capacity. It is the
// reuse path that lets one warm kernel serve many simulation runs without
// reallocating its event storage; handler IDs issued before the reset
// stay valid. Reset panics if live procs remain — their goroutines are
// parked inside model code and would corrupt a new run.
func (k *Kernel) Reset() {
	if k.nProcs != 0 {
		panic(fmt.Sprintf("sim: Reset with %d live procs", k.nProcs))
	}
	k.events = k.events[:0]
	clear(k.closures) // release the dropped events' closures for GC
	k.closures = k.closures[:0]
	k.freeSlots = k.freeSlots[:0]
	k.band.reset()
	k.tail = k.tail[:0]
	k.inEvent = false
	k.now, k.seq = 0, 0
	k.stopped = false
	k.tieArmed = false
	k.stats = KernelStats{}
}
