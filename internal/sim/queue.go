package sim

import "math/bits"

// event is one queued typed event. Keep this struct at 24 bytes and free
// of pointers: the queue's appends and re-bucketing moves copy it with
// plain word copies, and the garbage collector never scans the buckets.
type event struct {
	t   Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	pay uint64 // kind<<56 | handler<<48 | a<<24 | b
}

// eventQueue is a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990) that pops events in exact (t, seq) order. It is exact for
// any stream the kernel produces, because the kernel's keys are monotone:
// AtEvent panics on t < now, and (t, seq) is unique.
//
// Every queued event has t ≥ last. Bucket i ≥ 1 holds the events whose t
// first differs from last at bit i-1, so each event of bucket i is
// earlier than each event of bucket j > i. b[0] holds the events at
// exactly last, and head is its next unpopped entry. mask marks the
// non-empty buckets above b[0], so the lowest one is one TrailingZeros64;
// a push to b[0] leaves bit 0 clear, so advance never takes b[0] for the
// bucket to empty.
// Times are never negative, so bit 63 never differs and 64 buckets cover
// every key.
//
// A push appends to one bucket: b[0] when t is last, which is how an
// event scheduled at now while now is last joins the events there behind
// the ones an advance moved in. Once b[0] is drained, advance finds the
// lowest non-empty bucket and its minimum m, makes m the new last, and
// re-buckets that one bucket: each of its events moves to a lower bucket,
// the ones at m to b[0]. Buckets above it keep their index, since m
// agrees with the old last on every bit they differ at.
//
// Seq order needs no sort. Pushes append with rising seq, and advance
// moves events only into buckets that were empty (all lie below the one
// it empties), in scan order, so every bucket stays sorted by seq. The
// events advance moves into b[0] are therefore in seq order.
//
// The invariant that keeps all this correct is last ≤ now at every push,
// so a push never lands below last. advance holds it by never moving last
// past its limit: when the minimum is later than the limit it returns 0
// and changes nothing, so RunUntil can ask for the next event without
// committing to it. step then sets now to the popped event's time, which
// is last.
//
// Buckets keep their capacity across reset, so a warm kernel schedules
// without allocating.
type eventQueue struct {
	last Time
	head int
	mask uint64
	b    [64][]event
}

// bucket returns the index of the bucket that holds an event at t.
func (q *eventQueue) bucket(t Time) int { return bits.Len64(uint64(t ^ q.last)) }

func (q *eventQueue) push(e event) {
	i := q.bucket(e.t)
	q.b[i] = append(q.b[i], e)
	q.mask |= 1 << i &^ 1
}

// hasNow reports whether events at the current time are still queued.
// Only b[0] can hold them, and it holds nothing else, since last is now
// whenever b[0] is not drained: step sets now to last before it runs a
// handler, so the advance that reached now moved the events scheduled
// ahead to now there, and a handler's pushes at now land there too. now
// moves on from last only through another advance or an idle RunUntil
// advance, which finds b[0] drained; a push at now after that lands in a
// higher bucket until an advance reaches it.
func (q *eventQueue) hasNow() bool { return q.head < len(q.b[0]) }

// pop removes the next event of b[0]. The caller has checked hasNow or
// just had advance succeed.
func (q *eventQueue) pop() event {
	e := q.b[0][q.head]
	q.head++
	return e
}

// advance refills a drained b[0] with the earliest queued events and
// returns how many events it re-bucketed, or 0, changing nothing, when
// the queue is empty or its earliest event is later than limit.
func (q *eventQueue) advance(limit Time) int {
	if q.mask == 0 {
		return 0
	}
	i := bits.TrailingZeros64(q.mask)
	src := q.b[i]
	m := src[0].t
	for _, e := range src[1:] {
		if e.t < m {
			m = e.t
		}
	}
	if m > limit {
		return 0
	}
	q.last = m
	q.b[0], q.head = q.b[0][:0], 0
	for _, e := range src {
		j := q.bucket(e.t)
		q.b[j] = append(q.b[j], e)
		q.mask |= 1 << j
	}
	q.b[i] = src[:0]
	q.mask &^= 1<<i | 1
	return len(src)
}

// len returns the number of queued events.
func (q *eventQueue) len() int {
	n := len(q.b[0]) - q.head
	for m := q.mask; m != 0; m &= m - 1 {
		n += len(q.b[bits.TrailingZeros64(m)])
	}
	return n
}

// reset empties the queue, keeping every bucket's capacity.
func (q *eventQueue) reset() {
	for i := range q.b {
		q.b[i] = q.b[i][:0]
	}
	q.last, q.head, q.mask = 0, 0, 0
}
