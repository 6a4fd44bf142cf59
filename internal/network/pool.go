package network

// This file holds the fabric's hot-path memory discipline: the packet
// slab (fixed-size chunks of Packet values, recycled at delivery through a
// free list) and the per-VC packet queue (an intrusive list threaded
// through that slab, so an empty queue owns no backing array). Together
// with the typed kernel events in fabric.go these make the steady-state
// per-packet path allocation-free; the AllocsPerRun gates in alloc_test.go
// pin that.

// PoolStats reports packet-slab activity for one fabric. Allocated counts
// packets issued from the slab cursor (fresh slots on a cold fabric, warm
// spares on a reused one), Recycled counts free-list reuse; in steady
// state Recycled dwarfs Allocated and the Arena count equals the
// high-water mark of simultaneously live packets. A reused fabric reports
// the same stats as a fresh one running the same workload — Arena is the
// cursor position, not the slab's historical high-water mark.
type PoolStats struct {
	Allocated uint64 // packets issued past the slab cursor
	Recycled  uint64 // packets served from the free list
	Arena     int    // packets issued this run (live + free)
	Free      int    // packets currently on the free list
}

// PoolStats returns the fabric's current packet-slab statistics.
func (f *Fabric) PoolStats() PoolStats {
	s := f.pool.stats
	s.Arena = f.pool.next
	s.Free = len(f.pool.free)
	return s
}

// The slab grows in chunks of chunkSize packets. A chunk is exactly 32 KB
// (256 × 128 B): a pointerful object that size takes the runtime's
// large-object path, a span of its own with no allocation header, so slot
// 0 — and with 128-byte packets every slot — starts on a cache line
// (TestHotLayout checks it). A smaller pointerful chunk carries an 8-byte
// header in front of slot 0, which would split every packet across two
// lines; a larger one would only raise the floor a small fabric pays for
// its first packet.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// packetPool is a per-fabric slab of Packets with a LIFO free list. LIFO
// keeps the hottest (cache-resident) packet at hand, and — unlike
// sync.Pool — is deterministic and survives GC, both of which the
// simulator requires. Slot idx lives at chunks[idx>>chunkShift]
// [idx&chunkMask]; growing appends a chunk and never moves a packet, so a
// *Packet stays valid across allocPacket. next is the warm-reuse cursor:
// slots below it are in circulation this run, slots at or above it are
// unissued (fresh, or survivors of a previous run, see reset), handed out
// in order before the slab grows so a warm fabric replays a fresh
// fabric's pool behaviour exactly — Allocated counts cursor advances, not
// heap allocations, keeping PoolStats identical between the two.
type packetPool struct {
	chunks []*[chunkSize]Packet // allocated on demand; Packet.idx indexes the slab
	free   []int32              // slots available for reuse
	next   int                  // slots issued this run; slots from next on are spares
	stats  PoolStats
}

// at resolves slot idx to its packet.
func (pl *packetPool) at(idx int32) *Packet {
	return &pl.chunks[idx>>chunkShift][idx&chunkMask]
}

// grow appends one chunk, stamping each slot with its index.
func (pl *packetPool) grow() {
	c := new([chunkSize]Packet)
	base := int32(len(pl.chunks)) << chunkShift
	for i := range c {
		c[i].idx = base + int32(i)
	}
	pl.chunks = append(pl.chunks, c)
}

// reset rewinds the pool for fabric reuse: every slot becomes a warm
// spare again and the stats start over. Message references are dropped so
// a finished run's transfers do not outlive it; slots at or above next
// hold none, since none was issued since the last reset.
func (pl *packetPool) reset() {
	for i := 0; i < pl.next; i++ {
		pl.at(int32(i)).msg = nil
	}
	pl.free = pl.free[:0]
	pl.next = 0
	pl.stats = PoolStats{}
}

// allocPacket returns a reset packet. With recycle disabled
// (Params.NoRecycle) it always takes a fresh slot, which is the reference
// behaviour the pool property tests compare against.
func (f *Fabric) allocPacket() *Packet {
	pool := &f.pool
	if n := len(pool.free); n > 0 && !f.params.NoRecycle {
		p := pool.at(pool.free[n-1])
		pool.free = pool.free[:n-1]
		pool.stats.Recycled++
		p.reset()
		return p
	}
	pool.stats.Allocated++
	if pool.next == len(pool.chunks)<<chunkShift {
		pool.grow()
	}
	p := pool.at(int32(pool.next))
	pool.next++
	p.reset()
	return p
}

// releasePacket returns a delivered packet to the free list.
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
func (p *Packet) reset() {
	p.qnext = 0
	p.src, p.dst = 0, 0
	p.bytes, p.flits = 0, 0
	p.nroute = 0
	p.hop = -1
	p.routed, p.response, p.nonMin = false, false, false
	p.mode = 0
	p.sendTime, p.routedAt = 0, 0
	p.msg = nil
}

// packetOf resolves a typed-event payload back to its packet.
func (f *Fabric) packetOf(idx int64) *Packet { return f.pool.at(int32(idx)) }

// pktQueue is one virtual channel's FIFO of queued packets: a singly
// linked list threaded through the packet slab. head and tail are slab
// slots, each queued packet's qnext names its successor, and both ends are
// meaningful only while n > 0. A packet is in at most one VC queue at any
// moment — release pops it before arrive pushes it downstream — so the
// one link per packet is enough, and a queue costs 12 bytes whether it is
// empty or holds a thousand packets.
// TestQueueListsConsistent walks every list against n and nonEmpty.
type pktQueue struct {
	head, tail, n int32
}

func (q *pktQueue) empty() bool                  { return q.n == 0 }
func (q *pktQueue) len() int                     { return int(q.n) }
func (q *pktQueue) front(pl *packetPool) *Packet { return pl.at(q.head) }

func (q *pktQueue) push(pl *packetPool, p *Packet) {
	if q.n == 0 {
		q.head = p.idx
	} else {
		pl.at(q.tail).qnext = p.idx
	}
	q.tail = p.idx
	q.n++
}

func (q *pktQueue) pop(pl *packetPool) *Packet {
	p := pl.at(q.head)
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
