package network

import (
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// driveTraffic sends msgs random messages into f with rng and returns the
// total payload bytes injected. It does not run the kernel.
func driveTraffic(f *Fabric, rng *rand.Rand, msgs int) (msgList []*Message, totalBytes int) {
	n := f.Topology().NumNodes()
	for i := 0; i < msgs; i++ {
		src := topology.NodeID(rng.Intn(n))
		dst := topology.NodeID(rng.Intn(n))
		for src == dst {
			dst = topology.NodeID(rng.Intn(n))
		}
		bytes := 1 + rng.Intn(3*PacketBytes)
		m := f.Send(src, dst, bytes, routing.Mode(rng.Intn(4)))
		msgList = append(msgList, m)
		totalBytes += bytes
	}
	return msgList, totalBytes
}

// TestQueuedFlitsMatchesWalk pins the cached occTotal sums behind
// QueuedFlits to the slow per-VC walk, both mid-flight (while queues hold
// packets) and after drain (both must read zero).
func TestQueuedFlitsMatchesWalk(t *testing.T) {
	f := testFabric(t, 3, 21)
	rng := rand.New(rand.NewSource(42))
	driveTraffic(f, rng, 60)

	sawQueued := false
	deadline := sim.Time(0)
	for f.Kernel().Pending() > 0 {
		deadline += 200 * sim.Nanosecond
		f.Kernel().RunUntil(deadline)
		fast, slow := f.QueuedFlits(), f.queuedFlitsWalk()
		if fast != slow {
			t.Fatalf("at t=%v QueuedFlits=%d but per-VC walk=%d", f.Kernel().Now(), fast, slow)
		}
		if fast > 0 {
			sawQueued = true
		}
	}
	if !sawQueued {
		t.Fatal("traffic never showed up in QueuedFlits; test is vacuous")
	}
	if got := f.QueuedFlits(); got != 0 {
		t.Fatalf("QueuedFlits=%d after drain, want 0", got)
	}
}

// checkQueueLists walks every VC list of f and fails unless each holds
// exactly its count of packets, ending at its tail; its nonEmpty bit
// agrees with that count; no packet sits in two queues or on the free list
// while queued; each server's per-VC occupancies sum to occTotal; and
// each link's Fabric.loads due mirror is nonzero exactly while its server
// owes a fused completion, and then equals freeAt. It reports the packets
// queued and whether any server was blocked or had waiters.
func checkQueueLists(t *testing.T, f *Fabric) (queued int, congested bool) {
	t.Helper()
	pool := &f.pool
	free := make(map[int32]bool, len(pool.free))
	for _, idx := range pool.free {
		free[idx] = true
	}
	seen := make(map[int32]int32, pool.next) // packet slot -> server holding it
	for i := range f.servers {
		s := &f.servers[i]
		occ := 0
		for vc := range s.queues {
			occ += int(s.occ[vc])
			q := s.queues[vc]
			if bit := s.nonEmpty&(1<<uint(vc)) != 0; bit != (q.n > 0) {
				t.Fatalf("server %d VC %d: nonEmpty bit %v with n=%d", s.idx, vc, bit, q.n)
			}
			if q.n < 0 {
				t.Fatalf("server %d VC %d: negative length %d", s.idx, vc, q.n)
			}
			if q.n == 0 {
				continue
			}
			walked := int32(0)
			for slot := q.head; ; slot = pool.at(slot).qnext {
				if walked == q.n {
					t.Fatalf("server %d VC %d: list runs past its count %d without reaching tail %d",
						s.idx, vc, q.n, q.tail)
				}
				walked++
				if prev, ok := seen[slot]; ok {
					t.Fatalf("packet %d queued twice (servers %d and %d)", slot, prev, s.idx)
				}
				seen[slot] = s.idx
				if free[slot] {
					t.Fatalf("packet %d is queued at server %d and on the free list", slot, s.idx)
				}
				if slot == q.tail {
					break
				}
			}
			if walked != q.n {
				t.Fatalf("server %d VC %d: walked %d packets, n=%d", s.idx, vc, walked, q.n)
			}
			queued += int(walked)
		}
		if occ != s.occTotal {
			t.Fatalf("server %d: per-VC occupancy sums to %d, occTotal=%d", s.idx, occ, s.occTotal)
		}
		if i < len(f.loads) {
			if due := f.loads[i].due; (due != 0) != s.pendingTx || (s.pendingTx && due != s.freeAt) {
				t.Fatalf("link %d: load mirror due=%v, server pendingTx=%v freeAt=%v",
					i, due, s.pendingTx, s.freeAt)
			}
		}
		if s.blocked || len(s.waiters) > 0 {
			congested = true
		}
	}
	return queued, congested
}

// TestQueueListsConsistent runs congested random traffic through the
// fused and the split model and checks every intrusive VC list against
// its count, its nonEmpty bit and the occupancy totals, and every link's
// load mirror against its server, at every step.
func TestQueueListsConsistent(t *testing.T) {
	for _, fuse := range []bool{true, false} {
		topo, err := topology.Build(topology.TestConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		params := DefaultParams()
		params.FuseLinks = fuse
		f := New(sim.NewKernel(), topo, params, routing.DefaultConfig(), 5)
		driveTraffic(f, rand.New(rand.NewSource(77)), 300)

		sawQueued, sawCongested, sawOwed := false, false, false
		deadline := sim.Time(0)
		for f.Kernel().Pending() > 0 {
			deadline += 200 * sim.Nanosecond
			f.Kernel().RunUntil(deadline)
			f.settleAll()
			queued, congested := checkQueueLists(t, f)
			sawQueued = sawQueued || queued > 1
			sawCongested = sawCongested || congested
			for i := range f.loads {
				sawOwed = sawOwed || f.loads[i].due != 0
			}
		}
		if !sawQueued || !sawCongested || sawOwed != fuse {
			t.Fatalf("fuse=%v: traffic never queued (%v) or congested (%v), or owed completions seen=%v; test is vacuous",
				fuse, sawQueued, sawCongested, sawOwed)
		}
		if queued, _ := checkQueueLists(t, f); queued != 0 {
			t.Fatalf("fuse=%v: %d packets still queued after drain", fuse, queued)
		}
	}
}

// TestUnmatchedReleasePanics pins the occupancy invariant: releasing
// buffer space that was never reserved is a model bug and panics instead
// of being clamped away.
func TestUnmatchedReleasePanics(t *testing.T) {
	f := testFabric(t, 2, 1)
	s := &f.servers[0]
	s.bumpOcc(3, 8, 0)
	s.bumpOcc(3, -8, 0) // matched: fine
	defer func() {
		if recover() == nil {
			t.Fatal("unmatched release did not panic")
		}
	}()
	s.bumpOcc(3, -1, 0)
}

// checkPoolInvariants verifies the slab/free-list structure after a fully
// drained run: every slab slot knows its own index, the free list holds
// each recyclable slot exactly once, and with no packet in flight the free
// list covers every issued slot (no leaked, no double-freed packets).
func checkPoolInvariants(t *testing.T, f *Fabric) {
	t.Helper()
	pool := &f.pool
	if pool.next > len(pool.chunks)*chunkSize {
		t.Fatalf("cursor %d past the slab's %d slots", pool.next, len(pool.chunks)*chunkSize)
	}
	for c, chunk := range pool.chunks {
		for j := range chunk {
			if i := c*chunkSize + j; int(chunk[j].idx) != i {
				t.Fatalf("slot %d has idx %d; recycled packet aliases another slot", i, chunk[j].idx)
			}
		}
	}
	seen := make(map[int32]bool, len(pool.free))
	for _, idx := range pool.free {
		if idx < 0 || int(idx) >= pool.next {
			t.Fatalf("free-list index %d outside the %d issued slots", idx, pool.next)
		}
		if seen[idx] {
			t.Fatalf("slab slot %d double-freed", idx)
		}
		seen[idx] = true
	}
	if len(pool.free) != pool.next {
		t.Fatalf("after drain %d of %d issued slots on the free list; %d packets leaked",
			len(pool.free), pool.next, pool.next-len(pool.free))
	}
	if got := pool.stats.Allocated; got != uint64(pool.next) {
		t.Fatalf("PoolStats.Allocated=%d, %d slots issued", got, pool.next)
	}
}

// TestPacketSlabGrowth holds live packets across a chunk boundary: growing
// the slab must not move a packet, so pointers taken before the growth
// still read their own slot, and packetOf resolves each slot to the same
// pointer. A warm Reset then replays the same slots and PoolStats without
// growing the slab again.
func TestPacketSlabGrowth(t *testing.T) {
	f := testFabric(t, 2, 1)
	run := func() ([]*Packet, []PoolStats) {
		var live []*Packet
		var stats []PoolStats
		for i := 0; i < chunkSize+1; i++ {
			live = append(live, f.allocPacket())
			stats = append(stats, f.PoolStats())
		}
		for i, p := range live {
			if int(p.idx) != i {
				t.Fatalf("packet %d reads idx %d after the slab grew", i, p.idx)
			}
			if q := f.packetOf(int64(i)); q != p {
				t.Fatalf("packetOf(%d) = %p, want %p", i, q, p)
			}
		}
		for _, p := range live {
			f.releasePacket(p)
		}
		for i := 0; i < chunkSize+1; i++ {
			f.allocPacket()
			stats = append(stats, f.PoolStats())
		}
		return live, stats
	}
	cold, coldStats := run()
	if len(f.pool.chunks) != 2 {
		t.Fatalf("%d live packets span %d chunks, want 2", chunkSize+1, len(f.pool.chunks))
	}
	if st := coldStats[len(coldStats)-1]; st.Recycled != chunkSize+1 {
		t.Fatalf("second round recycled %d packets, want %d (stats %+v)", st.Recycled, chunkSize+1, st)
	}
	f.Reset(1)
	warm, warmStats := run()
	if len(f.pool.chunks) != 2 {
		t.Fatalf("warm replay grew the slab to %d chunks", len(f.pool.chunks))
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Fatalf("warm replay issued slot %d at %p, cold at %p", i, warm[i], cold[i])
		}
	}
	for i := range coldStats {
		if warmStats[i] != coldStats[i] {
			t.Fatalf("allocation %d: warm PoolStats %+v, cold %+v", i, warmStats[i], coldStats[i])
		}
	}
}

// runPair drives identical traffic through a recycling fabric and a
// NoRecycle reference fabric (same topology, seeds, and message sequence)
// and fails if any observable output differs: packet and route-class
// counts, per-message delivery times, final virtual time, every hardware
// counter, and ORB samples. This is the aliasing property test: if a
// recycled packet ever aliased a live one, its route, payload accounting,
// or delivery would diverge from the allocate-always reference.
func runPair(t *testing.T, seed int64, msgs int) {
	t.Helper()
	build := func(noRecycle bool) *Fabric {
		topo, err := topology.Build(topology.TestConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		params := DefaultParams()
		params.NoRecycle = noRecycle
		return New(sim.NewKernel(), topo, params, routing.DefaultConfig(), seed)
	}
	fp, fr := build(false), build(true)

	mp, bytesP := driveTraffic(fp, rand.New(rand.NewSource(seed+1)), msgs)
	mr, bytesR := driveTraffic(fr, rand.New(rand.NewSource(seed+1)), msgs)
	if bytesP != bytesR {
		t.Fatalf("traffic generators diverged: %d vs %d bytes", bytesP, bytesR)
	}
	endP, endR := fp.Kernel().Run(), fr.Kernel().Run()

	if endP != endR {
		t.Fatalf("seed %d: final time %v (pooled) vs %v (reference)", seed, endP, endR)
	}
	if fp.PacketsSent != fr.PacketsSent || fp.PacketsDelivered != fr.PacketsDelivered {
		t.Fatalf("seed %d: sent/delivered %d/%d vs %d/%d",
			seed, fp.PacketsSent, fp.PacketsDelivered, fr.PacketsSent, fr.PacketsDelivered)
	}
	if fp.MinimalCount != fr.MinimalCount || fp.NonMinimalCount != fr.NonMinimalCount {
		t.Fatalf("seed %d: route classes %d/%d vs %d/%d",
			seed, fp.MinimalCount, fp.NonMinimalCount, fr.MinimalCount, fr.NonMinimalCount)
	}
	for i := range mp {
		if !mp[i].Done.Fired() || !mr[i].Done.Fired() {
			t.Fatalf("seed %d: message %d undelivered (pooled=%v reference=%v)",
				seed, i, mp[i].Done.Fired(), mr[i].Done.Fired())
		}
		if mp[i].DeliveredAt != mr[i].DeliveredAt {
			t.Fatalf("seed %d: message %d delivered at %v (pooled) vs %v (reference)",
				seed, i, mp[i].DeliveredAt, mr[i].DeliveredAt)
		}
	}
	cp, cr := fp.Counters(), fr.Counters()
	for r := range cp.Flits {
		for tl := range cp.Flits[r] {
			if cp.Flits[r][tl] != cr.Flits[r][tl] {
				t.Fatalf("seed %d: router %d tile %d flits %d vs %d",
					seed, r, tl, cp.Flits[r][tl], cr.Flits[r][tl])
			}
			if cp.Stalls[r][tl] != cr.Stalls[r][tl] {
				t.Fatalf("seed %d: router %d tile %d stalls %v vs %v",
					seed, r, tl, cp.Stalls[r][tl], cr.Stalls[r][tl])
			}
		}
	}
	for n := range cp.ORBCount {
		if cp.ORBCount[n] != cr.ORBCount[n] || cp.ORBTimeSum[n] != cr.ORBTimeSum[n] {
			t.Fatalf("seed %d: node %d ORB %d/%v vs %d/%v",
				seed, n, cp.ORBCount[n], cp.ORBTimeSum[n], cr.ORBCount[n], cr.ORBTimeSum[n])
		}
	}

	checkPoolInvariants(t, fp)
	if st := fp.PoolStats(); st.Recycled == 0 {
		t.Fatalf("seed %d: pool never recycled a packet; property test is vacuous (stats %+v)",
			seed, st)
	}
}

// TestRecycleMatchesNoRecycle is the pooled-vs-reference property over a
// spread of seeds.
func TestRecycleMatchesNoRecycle(t *testing.T) {
	for _, seed := range []int64{1, 17, 202, 4096} {
		runPair(t, seed, 80)
	}
}

// FuzzRecycleMatchesNoRecycle fuzzes the same property over arbitrary
// seeds and traffic volumes.
func FuzzRecycleMatchesNoRecycle(f *testing.F) {
	f.Add(int64(3), uint8(20))
	f.Add(int64(999), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, msgs uint8) {
		runPair(t, seed, 1+int(msgs)%100)
	})
}
