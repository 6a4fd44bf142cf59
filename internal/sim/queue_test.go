package sim

import (
	"math/rand"
	"testing"
)

// scheduler is what a streamDriver needs of a kernel. Kernel and the
// reference refKernel both provide it.
type scheduler interface {
	Now() Time
	AtEvent(t Time, h HandlerID, kind uint8, a, b int64)
	TryTailCall(h HandlerID, kind uint8, a, b int64) bool
	RunUntil(deadline Time) Time
	Run() Time
	Reset()
	Pending() int
}

// delayKind is how a streamDriver picks one scheduled event's time.
type delayKind uint8

const (
	zeroDelay delayKind = iota // at now: appended to the current-time bucket
	tailCall                   // TryTailCall inside an event, else at now
	nextNs                     // the next whole nanosecond: dense equal-t groups
	onePs                      // 1 ps on: adjacent keys, the lowest bucket
	spread                     // 2^k ps on, k in [0, 30]: 1 ps to ~1 ms, every bucket below 32
)

// opKind is one top-level step of a streamDriver, taken outside any event.
type opKind uint8

const (
	opSchedule     opKind = iota // schedule one to four events
	opUntilAt                    // RunUntil a scheduled event's time
	opUntilBetween               // RunUntil 1 ps before a scheduled event's time, or after it
	opRun                        // Run to drain
	opReset                      // Reset, possibly with events still queued
)

var (
	allDelays = []delayKind{zeroDelay, tailCall, nextNs, onePs, spread}
	allOps    = []opKind{opSchedule, opSchedule, opUntilAt, opUntilBetween, opRun, opReset}
)

// maxStreamEvents caps the events one stream schedules.
const maxStreamEvents = 1 << 14

// fired is one event as its handler saw it: when it ran and which
// scheduled event it was. id is the event's scheduling rank, so comparing
// fired sequences compares (t, seq, pay) order exactly: ids rise with
// scheduling order as seq does, and the payload carries the id.
type fired struct {
	t  Time
	id int64
}

// streamDriver drives one scheduler through the monotone event stream a
// byte script describes: top-level operations (schedule, RunUntil, Run,
// Reset), and, inside every event, zero to three follow-up events. Two
// drivers over the same script and delay and op mixes schedule the same
// stream as long as their schedulers fire it in the same order.
type streamDriver struct {
	s      scheduler
	hid    HandlerID
	script []byte
	pos    int
	delays []delayKind
	ops    []opKind
	nextID int64
	times  []Time // every event time scheduled since the last Reset
	fired  []fired
}

func (d *streamDriver) next() byte {
	if d.pos >= len(d.script) {
		return 0
	}
	c := d.script[d.pos]
	d.pos++
	return c
}

// schedule adds one event, inside an event handler when inEvent.
func (d *streamDriver) schedule(inEvent bool) {
	if d.nextID >= maxStreamEvents {
		return
	}
	now := d.s.Now()
	t := now
	kind := d.delays[int(d.next())%len(d.delays)]
	switch kind {
	case nextNs:
		t = (now/Nanosecond + 1) * Nanosecond
	case onePs:
		t = now + 1
	case spread:
		t = now + Time(1)<<(d.next()%31)
	}
	id := d.nextID
	d.nextID++
	d.times = append(d.times, t)
	if kind == tailCall && inEvent && d.s.TryTailCall(d.hid, 1, id, 0) {
		return
	}
	d.s.AtEvent(t, d.hid, 0, id, 0)
}

func (d *streamDriver) HandleEvent(kind uint8, a, b int64) {
	d.fired = append(d.fired, fired{t: d.s.Now(), id: a})
	for n := d.next() % 4; n > 0; n-- {
		d.schedule(true)
	}
}

// deadline picks a scheduled event's time, favouring recent ones, and
// never one before now.
func (d *streamDriver) deadline() Time {
	now := d.s.Now()
	if len(d.times) == 0 {
		return now
	}
	t := d.times[len(d.times)-1-int(d.next())%len(d.times)]
	if t < now {
		return now
	}
	return t
}

// op takes one top-level step and reports whether the script had any
// left to take.
func (d *streamDriver) op() bool {
	if d.pos >= len(d.script) {
		return false
	}
	switch d.ops[int(d.next())%len(d.ops)] {
	case opSchedule:
		for n := d.next()%4 + 1; n > 0; n-- {
			d.schedule(false)
		}
	case opUntilAt:
		d.s.RunUntil(d.deadline())
	case opUntilBetween:
		t := d.deadline()
		if t > d.s.Now() {
			d.s.RunUntil(t - 1)
		} else {
			d.s.RunUntil(t + 1)
		}
	case opRun:
		d.s.Run()
	case opReset:
		d.s.Reset()
		d.times = d.times[:0]
	}
	return true
}

// checkStream drives the kernel and the reference scheduler through the
// same script and fails at the first operation after which they differ
// in the events fired, the clock, Pending, or the TimestampTies count.
func checkStream(t *testing.T, script []byte, delays []delayKind, ops []opKind) {
	t.Helper()
	k := NewKernel()
	ref := &refKernel{}
	ref.register(nil) // the kernel's own procHandler slot: ids match
	kd := &streamDriver{s: k, script: script, delays: delays, ops: ops}
	kd.hid = k.RegisterHandler(kd)
	rd := &streamDriver{s: ref, script: script, delays: delays, ops: ops}
	rd.hid = ref.register(rd)
	checked := 0 // fired events already compared
	for step := 0; ; step++ {
		more := kd.op()
		rd.op()
		if !more {
			k.Run()
			ref.Run()
		}
		if len(kd.fired) != len(rd.fired) {
			t.Fatalf("step %d: kernel fired %d events, reference %d", step, len(kd.fired), len(rd.fired))
		}
		for i := checked; i < len(kd.fired); i++ {
			if kd.fired[i] != rd.fired[i] {
				t.Fatalf("step %d: event %d is %+v, reference %+v", step, i, kd.fired[i], rd.fired[i])
			}
		}
		if k.Now() != ref.Now() || k.Pending() != ref.Pending() {
			t.Fatalf("step %d: now %v pending %d, reference now %v pending %d",
				step, k.Now(), k.Pending(), ref.Now(), ref.Pending())
		}
		if ties := k.Stats().TimestampTies; ties != ref.ties {
			t.Fatalf("step %d: %d timestamp ties, reference %d", step, ties, ref.ties)
		}
		if !more {
			return
		}
		checked = len(kd.fired)
	}
}

// TestEventQueueMatchesHeap drives the kernel's radix queue and tail
// calls and the reference 4-ary heap through random monotone streams,
// each case weighted towards one way the radix queue could go wrong.
func TestEventQueueMatchesHeap(t *testing.T) {
	cases := []struct {
		name   string
		delays []delayKind
		ops    []opKind
	}{
		{"dense equal-t groups", []delayKind{nextNs, nextNs, nextNs, zeroDelay, onePs}, allOps},
		{"delays 1ps to 1ms", []delayKind{spread}, allOps},
		{"zero-delay and tail calls", []delayKind{zeroDelay, tailCall, tailCall, onePs, spread}, allOps},
		{"RunUntil at and between events", allDelays, []opKind{opSchedule, opUntilAt, opUntilBetween}},
		{"Reset reuse", allDelays, []opKind{opSchedule, opSchedule, opUntilAt, opReset}},
		{"everything", allDelays, allOps},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				script := make([]byte, 4096)
				rand.New(rand.NewSource(seed)).Read(script)
				checkStream(t, script, c.delays, c.ops)
			}
		})
	}
}

// FuzzEventQueue fuzzes the same kernel-versus-reference comparison over
// arbitrary scripts, with every delay kind and operation in play.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 2, 4, 4, 4, 1, 0, 5})
	f.Add([]byte{1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47})
	f.Fuzz(func(t *testing.T, script []byte) {
		checkStream(t, script, allDelays, allOps)
	})
}
