package network

// This file holds the fabric's hot-path memory discipline: the packet
// arena (a free list that recycles Packet values at delivery) and the
// per-VC packet queue (an intrusive list threaded through that arena, so
// an empty queue owns no backing array). Together with the typed kernel
// events in fabric.go these make the steady-state per-packet path
// allocation-free; the AllocsPerRun gates in alloc_test.go pin that.

// PoolStats reports packet-arena activity for one fabric. Allocated counts
// packets issued from the arena cursor (fresh Packet values on a cold
// fabric, warm spares on a reused one), Recycled counts free-list reuse;
// in steady state Recycled dwarfs Allocated and the arena size equals the
// high-water mark of simultaneously live packets. A reused fabric reports
// the same stats as a fresh one running the same workload — Arena is the
// cursor position, not the backing array's historical high-water mark.
type PoolStats struct {
	Allocated uint64 // packets issued past the arena cursor
	Recycled  uint64 // packets served from the free list
	Arena     int    // packets issued this run (live + free)
	Free      int    // packets currently on the free list
}

// PoolStats returns the fabric's current packet-arena statistics.
func (f *Fabric) PoolStats() PoolStats {
	s := f.pool.stats
	s.Arena = f.pool.next
	s.Free = len(f.pool.free)
	return s
}

// packetPool is a per-fabric arena of Packets with a LIFO free list. LIFO
// keeps the hottest (cache-resident) packet at hand, and — unlike
// sync.Pool — is deterministic and survives GC, both of which the
// simulator requires. next is the warm-reuse cursor: slots below it are in
// circulation this run, slots at or above it are populated-but-unissued
// survivors of a previous run (see reset), handed out before the arena
// grows so a warm fabric replays a fresh fabric's pool behaviour exactly —
// Allocated counts cursor advances, not heap allocations, keeping
// PoolStats identical between the two.
type packetPool struct {
	arena []*Packet // every packet ever created; Packet.idx indexes this
	free  []int32   // arena slots available for reuse
	next  int       // arena slots issued this run; arena[next:] are warm spares
	stats PoolStats
}

// reset rewinds the pool for fabric reuse: every arena slot becomes a warm
// spare again and the stats start over. Message references are dropped so
// a finished run's transfers do not outlive it.
func (pl *packetPool) reset() {
	for _, p := range pl.arena {
		p.msg = nil
	}
	pl.free = pl.free[:0]
	pl.next = 0
	pl.stats = PoolStats{}
}

// get returns a reset packet. With recycle disabled (Params.NoRecycle) it
// always allocates, which is the reference behaviour the pool property
// tests compare against.
//
//simlint:hotpath
func (f *Fabric) allocPacket() *Packet {
	pool := &f.pool
	if n := len(pool.free); n > 0 && !f.params.NoRecycle {
		p := pool.arena[pool.free[n-1]]
		pool.free = pool.free[:n-1]
		pool.stats.Recycled++
		p.reset()
		return p
	}
	pool.stats.Allocated++
	if pool.next < len(pool.arena) {
		p := pool.arena[pool.next]
		pool.next++
		p.reset()
		return p
	}
	//simlint:allow hotpath arena growth on a pool miss: each slot is allocated once per fabric, then recycled
	p := &Packet{idx: int32(len(pool.arena)), hop: -1}
	pool.arena = append(pool.arena, p)
	pool.next = len(pool.arena)
	return p
}

// releasePacket returns a delivered packet to the free list.
//
//simlint:hotpath
func (f *Fabric) releasePacket(p *Packet) {
	if f.params.NoRecycle {
		return
	}
	p.msg = nil // drop the Message reference so delivered transfers can be collected
	f.pool.free = append(f.pool.free, p.idx)
}

// reset clears a recycled packet to its zero state, keeping idx. The route
// array is left as is: nroute = 0 makes its contents dead, and routePacket
// overwrites them.
//
//simlint:hotpath
func (p *Packet) reset() {
	p.qnext = 0
	p.src, p.dst = 0, 0
	p.bytes, p.flits = 0, 0
	p.nroute = 0
	p.hop = -1
	p.routed, p.response, p.nonMin = false, false, false
	p.rspMode = 0
	p.sendTime, p.routedAt = 0, 0
	p.msg = nil
}

// packetOf resolves a typed-event payload back to its packet.
//
//simlint:hotpath
func (f *Fabric) packetOf(idx int64) *Packet { return f.pool.arena[idx] }

// pktQueue is one virtual channel's FIFO of queued packets: a singly
// linked list threaded through the packet arena. head and tail are arena
// slots, each queued packet's qnext names its successor, and both ends are
// meaningful only while n > 0. A packet is in at most one VC queue at any
// moment — settle and finishTx pop it before hopDone or evArrive pushes it
// downstream — so the one link per packet is enough, and a queue costs 12
// bytes whether it is empty or holds a thousand packets.
// TestQueueListsConsistent walks every list against n and nonEmpty.
type pktQueue struct {
	head, tail, n int32
}

func (q *pktQueue) empty() bool                   { return q.n == 0 }
func (q *pktQueue) len() int                      { return int(q.n) }
func (q *pktQueue) front(arena []*Packet) *Packet { return arena[q.head] }

//simlint:hotpath
func (q *pktQueue) push(arena []*Packet, p *Packet) {
	if q.n == 0 {
		q.head = p.idx
	} else {
		arena[q.tail].qnext = p.idx
	}
	q.tail = p.idx
	q.n++
}

//simlint:hotpath
func (q *pktQueue) pop(arena []*Packet) *Packet {
	p := arena[q.head]
	q.head = p.qnext
	q.n--
	return p
}

// waitReg is one entry of a server's waitingOn set: we are registered in
// n.waiters as long as n's wake generation still matches gen. A wake flush
// bumps n.wakeGen, invalidating every registration pointing at n in O(1)
// instead of walking the waiters back-pointers (this replaces the former
// map[*server]struct{}, whose inserts and deletes allocated per blocking
// episode).
type waitReg struct {
	n   int32 // server index (Fabric.servers)
	gen uint64
}

// registerWaiter records that s is waiting for space at n, deduplicated
// against live registrations. The scan is over s's own small set (bounded
// by the distinct next-hop servers of s's VC heads), not n's waiter list.
//
//simlint:hotpath
func (f *Fabric) registerWaiter(s, n *server) {
	for i := range s.waitingOn {
		r := &s.waitingOn[i]
		if r.n == n.idx {
			if r.gen == n.wakeGen {
				return // still registered from an earlier block
			}
			r.gen = n.wakeGen
			n.waiters = append(n.waiters, s.idx)
			return
		}
	}
	s.waitingOn = append(s.waitingOn, waitReg{n: n.idx, gen: n.wakeGen})
	n.waiters = append(n.waiters, s.idx)
}

// flushWaiters snapshots s's current waiters for a batched wake and
// re-arbitrates them in the single evWake that follows. Bumping wakeGen
// invalidates the snapshot's registrations, so a waiter that is still
// blocked when woken simply re-registers. Late registrations (after the
// snapshot, before the wake fires) land in the fresh s.waiters slice and
// wait for the next flush — exactly the semantics the per-waiter closure
// scheme had.
//
// The wake prefers the kernel's tail-call slot over a queued zero-delay
// event: when nothing else is pending at the current timestamp the
// continuation runs in exactly the queue position AfterEvent(0) would
// have used, but without a heap push/pop — wakes are the third-largest
// event class on the packet path. TryTailCall refuses whenever the
// ordering would differ, and the queued event remains the fallback.
//
//simlint:hotpath
func (f *Fabric) flushWaiters(s *server) {
	if len(s.waiters) == 0 {
		return
	}
	s.wakeGen++
	s.waiters, s.waking = s.waking[:0], s.waiters
	if !f.k.TryTailCall(f.hid, evWake, int64(s.idx), 0) {
		f.k.AfterEvent(0, f.hid, evWake, int64(s.idx), 0)
	}
}

// wakeWaiters runs the batched wake: one kernel event re-arbitrating every
// server in the snapshot, in registration order (the same order the old
// one-event-per-waiter scheme preserved through consecutive sequence
// numbers).
//
//simlint:hotpath
func (f *Fabric) wakeWaiters(s *server) {
	for _, w := range s.waking {
		f.tryStart(&f.servers[w])
	}
	s.waking = s.waking[:0]
}

// QueuedFlits returns the total flits currently buffered in the fabric
// (diagnostic; returns to zero once all traffic has drained). Each
// server's occTotal caches the sum of its per-VC occupancy, so this is one
// addition per server rather than a walk over every VC slice;
// TestQueuedFlitsMatchesWalk pins the equivalence. Overdue fused
// completions settle first so the totals match the split reference.
func (f *Fabric) QueuedFlits() int {
	f.settleAll()
	total := 0
	for i := range f.servers {
		total += f.servers[i].occTotal
	}
	return total
}

// queuedFlitsWalk recomputes QueuedFlits the slow way, walking every VC of
// every server. Test-only reference for the cached occTotal sums.
func (f *Fabric) queuedFlitsWalk() int {
	f.settleAll()
	total := 0
	for i := range f.servers {
		for _, o := range f.servers[i].occ {
			total += int(o)
		}
	}
	return total
}
