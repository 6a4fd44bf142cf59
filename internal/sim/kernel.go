package sim

import (
	"fmt"
)

// Handler receives typed events scheduled with AtEvent/AfterEvent. The
// scheduler stores a registered handler's index plus a small scalar
// payload inline in the event, so model code schedules without touching
// the allocator. kind discriminates event types within one handler; a and b
// carry whatever the handler needs to find its state again (indexes into
// model-owned arenas, typically).
type Handler interface {
	HandleEvent(kind uint8, a, b int64)
}

// HandlerID names a handler registered with RegisterHandler. IDs are
// stored in events instead of the interface value itself so the event
// struct stays small and pointer-free.
type HandlerID int32

// procHandler is the kernel's own handler id: NewKernel registers the
// kernel first, and its events resume the proc whose id is in a.
const procHandler HandlerID = 0

// Event payload packing. Every event is typed and carries one uint64
// payload and no pointer, so a queued event is 24 bytes: the queue's
// appends and re-bucketing moves, the hottest loop in the simulator, copy
// it with plain word copies, and the garbage collector never scans the
// queue. The payload packs (kind, handler, a, b), which caps a kernel at
// 256 handlers (the kernel's own included), 256 kinds per handler, and
// payload scalars in [0, 2^24); AtEvent and RegisterHandler panic past
// any of these limits (they are far above what any realistic fabric
// needs — a and b index servers, live packets and live procs).
const (
	payloadBits = 24
	maxPayload  = 1<<payloadBits - 1
	maxHandlers = 1 << 8
)

// Kernel is a deterministic discrete-event simulator.
//
// The zero value is not usable; construct with NewKernel. A Kernel is not
// safe for concurrent use: all model code must run on the kernel goroutine
// or inside a Proc it controls.
type Kernel struct {
	now     Time
	seq     uint64
	events  eventQueue
	tail    []uint64 // payloads of the current event's deferred continuations
	inEvent bool     // an event handler is currently executing
	// handlers is the typed-event dispatch table, by HandlerID; the
	// kernel itself is entry procHandler.
	handlers []Handler //simlint:resetsafe registrations survive Reset by contract: warm fabrics keep their HandlerID
	// procs holds the live procs by id, the payload of their resume
	// events; freeProcs lists the ids of finished ones, which the next
	// spawns reuse, so the table stays at the peak number of procs live
	// at once.
	procs     []*Proc
	freeProcs []int32
	stopped   bool
	parked    chan struct{} //simlint:resetsafe channel identity; parked procs forbid Reset anyway (panic guard)
	// tieMark is the seq of the latest event scheduled when step last
	// moved the clock: an event at now with seq ≤ tieMark was scheduled
	// ahead, to fire at this reading, and each one after the first is a
	// KernelStats.TimestampTies tie. An idle RunUntil advance leaves it:
	// the events queued then are all later than the new reading, and
	// those scheduled after it have larger seqs.
	tieMark uint64
	stats   KernelStats
}

// digestBasis seeds KernelStats.Digest: a fresh or Reset kernel starts
// from it, so equal event streams give equal digests.
const digestBasis uint64 = 0xcbf29ce484222325

// fold mixes one 64-bit word into the event-stream digest: an xor, a
// multiply by an odd 64-bit constant, and an xor-shift that carries the
// product's high bits back down, so a change in any input bit spreads
// over the whole digest within a few folds.
func fold(d, x uint64) uint64 {
	d = (d ^ x) * 0x9e3779b97f4a7c15
	return d ^ d>>29
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
	// TimestampTies counts events scheduled ahead (at a t later than
	// the clock's reading when they were scheduled) that fired at a
	// reading some earlier such event had already fired at — i.e.,
	// members beyond the first of each exact-timestamp group. Such groups
	// are the only places where scheduling order (the seq tiebreak)
	// rather than physics decides execution order, which makes this the
	// detector for "this run's outcome may depend on event-scheduling
	// details": network.FuseLinks changes WHERE its events are scheduled,
	// so its equivalence tests assert byte-identity exactly when both
	// runs report zero ties. Deliberate zero-delay continuations (events
	// scheduled at now, tail calls) are not counted — they follow their
	// trigger by construction.
	TimestampTies uint64
	// Digest is a 64-bit hash of the event stream in firing order: each
	// queue event's (time, payload) and each tail call's payload, folded
	// in as they run. Two runs with equal digests fired the same events
	// in the same order, which makes it the oracle for changes that must
	// not reorder anything (the event queue, the proc handoff).
	Digest uint64
	// QueueMoves counts events the radix queue re-bucketed on its way to
	// the next timestamp (see eventQueue). Each event scheduled ahead
	// moves at least once, into the current-time bucket, and one
	// scheduled at now moves never, so QueueMoves per executed event is
	// the queue's own cost, independent of the host.
	QueueMoves uint64
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	k := &Kernel{parked: make(chan struct{}), stats: KernelStats{Digest: digestBasis}}
	k.RegisterHandler(k) // procHandler
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Stats returns a copy of the kernel's activity counters.
func (k *Kernel) Stats() KernelStats { return k.stats }

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return k.events.len() }

// panicPast reports scheduling before the current time. Outlined from the
// schedulers so the hot typed-event path stays free of fmt in its body.
func (k *Kernel) panicPast(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
}

// panicPayload reports a typed-event scalar outside the packable range.
func panicPayload(a, b int64) {
	panic(fmt.Sprintf("sim: typed-event payload (%d, %d) outside [0, 2^%d)", a, b, payloadBits))
}

// RegisterHandler adds h to the kernel's typed-event dispatch table and
// returns its id. Models register once at construction and schedule with
// the id; registration itself may allocate (table growth) but scheduling
// never does.
func (k *Kernel) RegisterHandler(h Handler) HandlerID {
	if len(k.handlers) >= maxHandlers {
		panic("sim: too many registered handlers")
	}
	k.handlers = append(k.handlers, h)
	return HandlerID(len(k.handlers) - 1)
}

// AtEvent schedules a typed event at absolute time t. The handler id and
// scalar payload are stored inline in the event queue, so nothing is
// heap-allocated in steady state. Events fire in (time, scheduling
// sequence) order. Scheduling in the past panics: that is always a model
// bug, and silently reordering would break determinism guarantees.
func (k *Kernel) AtEvent(t Time, h HandlerID, kind uint8, a, b int64) {
	if t < k.now {
		k.panicPast(t)
	}
	if uint64(a) > maxPayload || uint64(b) > maxPayload {
		panicPayload(a, b)
	}
	k.seq++
	k.events.push(event{t: t, seq: k.seq, pay: pack(h, kind, a, b)})
}

// pack builds an event payload from its checked parts.
func pack(h HandlerID, kind uint8, a, b int64) uint64 {
	return uint64(kind)<<56 | uint64(h)<<48 | uint64(a)<<payloadBits | uint64(b)
}

// TryTailCall defers a typed event to run as a direct continuation: it
// fires immediately after the currently executing event's handler returns,
// without ever entering the queue. That is exactly the queue position a
// zero-delay AtEvent would occupy — but ONLY when nothing else is pending
// at the current timestamp, so the call succeeds (and returns true) only
// then. On false the caller must schedule normally. Multiple tail calls
// registered during one event run in registration order, still matching
// zero-delay event semantics.
func (k *Kernel) TryTailCall(h HandlerID, kind uint8, a, b int64) bool {
	if !k.inEvent || k.events.hasNow() {
		return false
	}
	if uint64(a) > maxPayload || uint64(b) > maxPayload {
		panicPayload(a, b)
	}
	k.tail = append(k.tail, pack(h, kind, a, b))
	return true
}

// AfterEvent schedules a typed event d after the current time.
func (k *Kernel) AfterEvent(d Time, h HandlerID, kind uint8, a, b int64) {
	k.AtEvent(k.now+d, h, kind, a, b)
}

// Stop makes Run or RunUntil return after the current event completes,
// with the clock at that event's time.
func (k *Kernel) Stop() { k.stopped = true }

// exec dispatches one event to its handler, then drains any tail calls it
// (or its continuations) registered.
func (k *Kernel) exec(pay uint64) {
	k.stats.EventsExecuted++
	k.stats.Digest = fold(fold(k.stats.Digest, uint64(k.now)), pay)
	k.inEvent = true
	k.dispatch(pay)
	// Tail calls run back-to-back with the event that registered them;
	// appends during the loop (a continuation registering its own tail
	// call) extend it in order. They run at the registering event's time,
	// so the digest takes only their payload.
	for i := 0; i < len(k.tail); i++ {
		pay := k.tail[i]
		k.stats.TailCalls++
		k.stats.Digest = fold(k.stats.Digest, pay)
		k.dispatch(pay)
	}
	k.tail = k.tail[:0]
	k.inEvent = false
}

// dispatch unpacks a payload and calls its handler.
func (k *Kernel) dispatch(pay uint64) {
	k.handlers[pay>>48&0xff].HandleEvent(uint8(pay>>56),
		int64(pay>>payloadBits&maxPayload), int64(pay&maxPayload))
}

// step executes the earliest event due at or before limit. Returns false
// when no such event remains.
//
// Batch drain of the current timestamp: the queue's b[0] holds the
// events at now in seq order — first those scheduled ahead, which the
// advance that reached now moved there, then those scheduled at now,
// appended as they come — so popping it in order is exact (t, seq)
// order. Virtual time advances only once b[0] is drained, and only as
// far as limit: the queue's advance leaves everything as it was when the
// next event is later.
func (k *Kernel) step(limit Time) bool {
	if k.events.hasNow() {
		e := k.events.pop()
		// Scheduled ahead to a reading where an earlier such event
		// already fired: seq order is deciding.
		if e.seq <= k.tieMark {
			k.stats.TimestampTies++
		}
		k.exec(e.pay)
		return true
	}
	moved := k.events.advance(limit)
	if moved == 0 {
		return false
	}
	k.stats.QueueMoves += uint64(moved)
	e := k.events.pop()
	// The clock keeps its reading when an idle RunUntil advance already
	// set it: the events there were all scheduled at now.
	if e.t != k.now {
		k.now, k.tieMark = e.t, k.seq
	}
	k.exec(e.pay)
	return true
}

// maxTime is the latest representable time: Run's step limit.
const maxTime = Time(1<<63 - 1)

// Run executes events until the queue drains or Stop is called. It returns
// the final virtual time.
func (k *Kernel) Run() Time {
	k.stopped = false
	for !k.stopped && k.step(maxTime) {
	}
	return k.now
}

// RunUntil executes events with timestamps ≤ deadline, then advances the
// clock to deadline (even if idle) and returns. Events scheduled beyond the
// deadline remain queued. A Stop leaves the clock where it stopped, since
// events up to the deadline may remain.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.stopped = false
	for !k.stopped && k.step(deadline) {
	}
	if !k.stopped && k.now < deadline {
		k.now = deadline
	}
	return k.now
}

// LiveProcs returns the number of spawned procs that have not finished.
// A fully drained kernel with live procs means model code is parked on a
// signal that never fired; such a kernel cannot be safely Reset.
func (k *Kernel) LiveProcs() int { return len(k.procs) - len(k.freeProcs) }

// Reset rewinds the kernel to time zero with an empty queue and zeroed
// stats, retaining registered handlers and all queue capacity. It is the
// reuse path that lets one warm kernel serve many simulation runs without
// reallocating its event storage; handler IDs issued before the reset
// stay valid. Reset panics if live procs remain — their goroutines are
// parked inside model code and would corrupt a new run.
func (k *Kernel) Reset() {
	if n := k.LiveProcs(); n != 0 {
		panic(fmt.Sprintf("sim: Reset with %d live procs", n))
	}
	k.events.reset()
	k.procs = k.procs[:0] // every entry is nil: no proc is live
	k.freeProcs = k.freeProcs[:0]
	k.tail = k.tail[:0]
	k.inEvent = false
	k.now, k.seq, k.tieMark = 0, 0, 0
	k.stopped = false
	k.stats = KernelStats{Digest: digestBasis}
}
