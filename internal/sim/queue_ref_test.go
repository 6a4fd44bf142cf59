package sim

// This file keeps the kernel's previous event queue, an inline 4-ary
// min-heap on (t, seq), as the oracle the radix queue is checked
// against, and a reference scheduler built on it alone.

// less orders events by (t, seq): deterministic FIFO among equal times.
func (e *event) less(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// refHeap is an inline 4-ary min-heap of event values.
type refHeap []event

func (h *refHeap) push(e event) {
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

func (h *refHeap) pop() event {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
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

// refKernel is the definition of the kernel's event order with none of
// its fast paths: every event, zero-delay ones included, takes a sequence
// number and goes through one (t, seq) heap; there is no tail call
// (TryTailCall always refuses, so callers schedule a zero-delay event)
// and no radix bucket. Its Now, AtEvent, RunUntil, Run, Reset and
// Pending mean what the Kernel's do, and ties counts
// KernelStats.TimestampTies from its definition.
type refKernel struct {
	now      Time
	seq      uint64
	h        refHeap
	handlers []Handler
	// ahead[seq-1] records whether that event was scheduled ahead, at a
	// t later than now.
	ahead []bool
	// ties counts the events scheduled ahead that fired at aheadAt, the
	// reading the latest such event fired at, once one has (aheadFired).
	ties       uint64
	aheadAt    Time
	aheadFired bool
}

func (r *refKernel) Now() Time { return r.now }

func (r *refKernel) register(h Handler) HandlerID {
	r.handlers = append(r.handlers, h)
	return HandlerID(len(r.handlers) - 1)
}

func (r *refKernel) AtEvent(t Time, h HandlerID, kind uint8, a, b int64) {
	if t < r.now {
		panic("refKernel: scheduling in the past")
	}
	r.seq++
	r.h.push(event{t: t, seq: r.seq, pay: pack(h, kind, a, b)})
	r.ahead = append(r.ahead, t > r.now)
}

func (r *refKernel) TryTailCall(HandlerID, uint8, int64, int64) bool { return false }

// pop fires the earliest event. The caller has checked it is due.
func (r *refKernel) pop() {
	e := r.h.pop()
	r.now = e.t
	if r.ahead[e.seq-1] {
		if r.aheadFired && r.aheadAt == e.t {
			r.ties++
		}
		r.aheadAt, r.aheadFired = e.t, true
	}
	r.handlers[e.pay>>48&0xff].HandleEvent(uint8(e.pay>>56),
		int64(e.pay>>payloadBits&maxPayload), int64(e.pay&maxPayload))
}

func (r *refKernel) Run() Time {
	for len(r.h) > 0 {
		r.pop()
	}
	return r.now
}

func (r *refKernel) RunUntil(deadline Time) Time {
	for len(r.h) > 0 && r.h[0].t <= deadline {
		r.pop()
	}
	if r.now < deadline {
		r.now = deadline
	}
	return r.now
}

func (r *refKernel) Reset() {
	r.h = r.h[:0]
	r.now, r.seq = 0, 0
	r.ahead = r.ahead[:0]
	r.ties, r.aheadAt, r.aheadFired = 0, 0, false
}

func (r *refKernel) Pending() int { return len(r.h) }
