package network

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testFabric(t testing.TB, groups int, seed int64) *Fabric {
	t.Helper()
	topo, err := topology.Build(topology.TestConfig(groups))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	return New(k, topo, DefaultParams(), routing.DefaultConfig(), seed)
}

// TestNextHop pins the fabric's one hop rule on hand-built packets: the
// injection server hands a packet to route[0] on VC 0, link hop h to
// route[h+1] on VC h+1, and the last link, or the injection server of a
// route with no links (source and destination on one router), to the
// destination's ejection server on VC 0. The hop index always advances
// by one.
func TestNextHop(t *testing.T) {
	f := testFabric(t, 2, 1)
	const dst = topology.NodeID(3)
	ej := f.ejector(dst)
	if want := &f.servers[len(f.Topology().Links)+2*int(dst)+1]; ej != want || ej.kind != kindEject {
		t.Fatalf("ejector(%d) is server %d (kind %d), want server %d of kind %d",
			dst, ej.idx, ej.kind, want.idx, kindEject)
	}
	route := []topology.LinkID{5, 9, 2}
	for _, c := range []struct {
		name    string
		route   []topology.LinkID
		hop     int // hop index at the current server
		want    *server
		wantVC  int
		wantHop int
	}{
		{"injection", route, -1, &f.servers[5], 0, 0},
		{"link hop 0", route, 0, &f.servers[9], 1, 1},
		{"link hop 1", route, 1, &f.servers[2], 2, 2},
		{"last link", route, 2, ej, 0, 3},
		{"no links", nil, -1, ej, 0, 0},
	} {
		p := &Packet{dst: dst, hop: c.hop, nroute: uint8(len(c.route))}
		copy(p.route[:], c.route)
		n, vc, hop := f.nextHop(p)
		if n != c.want || vc != c.wantVC || hop != c.wantHop {
			t.Errorf("%s: next hop is server %d on VC %d at hop %d, want server %d on VC %d at hop %d",
				c.name, n.idx, vc, hop, c.want.idx, c.wantVC, c.wantHop)
		}
	}
}

func TestSendDelivers(t *testing.T) {
	f := testFabric(t, 3, 1)
	m := f.Send(0, 10, 4096, routing.AD0)
	f.Kernel().Run()
	if !m.Done.Fired() {
		t.Fatal("message never delivered")
	}
	if m.DeliveredAt <= 0 {
		t.Fatalf("DeliveredAt = %v", m.DeliveredAt)
	}
	if f.PacketsDelivered < 1 {
		t.Fatal("no packets delivered")
	}
}

func TestSameNodeLoopback(t *testing.T) {
	f := testFabric(t, 3, 1)
	m := f.Send(5, 5, 1<<20, routing.AD3)
	f.Kernel().Run()
	if !m.Done.Fired() {
		t.Fatal("loopback message never delivered")
	}
	if f.PacketsSent != 0 {
		t.Fatalf("loopback injected %d packets into the network", f.PacketsSent)
	}
	if m.DeliveredAt != localLatency {
		t.Fatalf("loopback latency = %v, want %v", m.DeliveredAt, localLatency)
	}
}

// TestLoopbackOrdering pins the same-node delivery FIFO: sends issued at
// one instant and at staggered, overlapping instants each deliver exactly
// localLatency after issue, in issue order, and fire Done. OnDelivered is
// attached after Send returns, as MPI matching does.
func TestLoopbackOrdering(t *testing.T) {
	f := testFabric(t, 3, 1)
	k := f.Kernel()
	lat := localLatency
	var issued []sim.Time
	var msgs []*Message
	var order []int
	send := func(now sim.Time, node topology.NodeID) {
		i := len(msgs)
		m := f.Send(node, node, 64, routing.AD0)
		m.OnDelivered = func(*Message) { order = append(order, i) }
		issued, msgs = append(issued, now), append(msgs, m)
	}
	k.Spawn(func(p *sim.Proc) {
		// Gaps below lat overlap batches in the FIFO; the last gap
		// exceeds it, so the FIFO drains and refills.
		for _, gap := range []sim.Time{0, lat / 3, lat / 2, 2 * lat} {
			p.Sleep(gap)
			for n := topology.NodeID(0); n < 3; n++ {
				send(p.Now(), n)
			}
			f.Send(0, 10, 4096, routing.AD0) // network traffic in between
		}
	})
	k.Run()
	if len(order) != len(msgs) {
		t.Fatalf("%d of %d loopback messages delivered", len(order), len(msgs))
	}
	for i, m := range msgs {
		if order[i] != i {
			t.Fatalf("delivery order %v, want issue order", order)
		}
		if !m.Done.Fired() {
			t.Fatalf("message %d: Done never fired", i)
		}
		if want := issued[i] + lat; m.DeliveredAt != want {
			t.Fatalf("message %d issued at %v delivered at %v, want %v", i, issued[i], m.DeliveredAt, want)
		}
	}
	if f.localHead != nil || f.localTail != nil {
		t.Fatal("loopback FIFO not empty after drain")
	}
}

func TestFragmentation(t *testing.T) {
	f := testFabric(t, 3, 2)
	bytes := 3*PacketBytes + 100
	m := f.Send(0, 8, bytes, routing.AD3)
	f.Kernel().Run()
	if !m.Done.Fired() {
		t.Fatal("message never delivered")
	}
	minPkts, nonMinPkts := m.RouteCounts()
	if minPkts+nonMinPkts != 4 {
		t.Fatalf("routed %d+%d packets, want 4", minPkts, nonMinPkts)
	}
}

func TestZeroByteMessage(t *testing.T) {
	f := testFabric(t, 3, 3)
	m := f.Send(0, 9, 0, routing.AD0)
	f.Kernel().Run()
	if !m.Done.Fired() {
		t.Fatal("zero-byte message never delivered")
	}
}

func TestDeliveryLatencyOrdering(t *testing.T) {
	// A cross-group message should take longer than a same-router one.
	f := testFabric(t, 3, 4)
	topo := f.Topology()
	nearDst := topology.NodeID(1) // same router as node 0
	if topo.RouterOfNode(0) != topo.RouterOfNode(nearDst) {
		t.Fatal("test setup: nodes 0,1 not on same router")
	}
	farDst := topology.NodeID(topo.Cfg.RoutersPerGroup() * topo.Cfg.NodesPerRouter) // first node of group 1
	if topo.GroupOfNode(farDst) == topo.GroupOfNode(0) {
		t.Fatal("test setup: far node in same group")
	}
	near := f.Send(0, nearDst, 4096, routing.AD3)
	far := f.Send(0, farDst, 4096, routing.AD3)
	f.Kernel().Run()
	if !near.Done.Fired() || !far.Done.Fired() {
		t.Fatal("messages not delivered")
	}
	if far.DeliveredAt <= near.DeliveredAt {
		t.Fatalf("far (%v) should arrive after near (%v)", far.DeliveredAt, near.DeliveredAt)
	}
}

func TestFlitConservation(t *testing.T) {
	// Flits counted at injection proc tiles must equal flits of all data
	// packets; every network tile traversal adds the same flit count.
	f := testFabric(t, 3, 5)
	const nMsgs = 20
	rng := rand.New(rand.NewSource(99))
	wantFlits := uint64(0)
	for i := 0; i < nMsgs; i++ {
		src := topology.NodeID(rng.Intn(f.Topology().NumNodes()))
		dst := topology.NodeID(rng.Intn(f.Topology().NumNodes()))
		for src == dst {
			dst = topology.NodeID(rng.Intn(f.Topology().NumNodes()))
		}
		bytes := 1 + rng.Intn(3*PacketBytes)
		f.Send(src, dst, bytes, routing.AD0)
		nPkts := (bytes + PacketBytes - 1) / PacketBytes
		rem := bytes
		for p := 0; p < nPkts; p++ {
			sz := PacketBytes
			if sz > rem {
				sz = rem
			}
			rem -= sz
			wantFlits += uint64(f.flitsOf(sz))
		}
	}
	f.Kernel().Run()
	agg := f.Counters().Aggregate(nil)
	if got := agg.Flits[topology.TileProcReq]; got != 2*wantFlits {
		// Injection + ejection both count on proc req tiles.
		t.Fatalf("proc req flits = %d, want %d (inject+eject)", got, 2*wantFlits)
	}
	if f.QueuedFlits() != 0 {
		t.Fatalf("fabric not drained: %d flits queued", f.QueuedFlits())
	}
}

func TestResponsesTracked(t *testing.T) {
	f := testFabric(t, 3, 6)
	src, dst := topology.NodeID(0), topology.NodeID(12)
	f.Send(src, dst, 4096, routing.AD0)
	f.Kernel().Run()
	c := f.Counters()
	if c.ORBCount[src] == 0 {
		t.Fatal("no ORB pairs tracked at source")
	}
	if c.MeanORBLatency(src) <= 0 {
		t.Fatal("ORB latency not positive")
	}
	// Response flits appear on proc rsp tiles.
	agg := c.Aggregate(nil)
	if agg.Flits[topology.TileProcRsp] == 0 {
		t.Fatal("no response traffic on proc rsp tiles")
	}
}

func TestBackpressureStalls(t *testing.T) {
	// Saturate one destination node from many sources: ejection blocking
	// must register stalls, and they appear on processor tiles.
	f := testFabric(t, 3, 7)
	topo := f.Topology()
	dst := topology.NodeID(0)
	var msgs []*Message
	for n := 1; n < topo.NumNodes(); n++ {
		msgs = append(msgs, f.Send(topology.NodeID(n), dst, 64*1024, routing.AD0))
	}
	f.Kernel().Run()
	for i, m := range msgs {
		if !m.Done.Fired() {
			t.Fatalf("incast message %d not delivered", i)
		}
	}
	agg := f.Counters().Aggregate(nil)
	total := agg.TotalStalls()
	if total <= 0 {
		t.Fatal("incast produced no stalls")
	}
	if agg.Stalls[topology.TileProcReq] <= 0 {
		t.Fatal("endpoint congestion produced no processor-tile stalls")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64, float64) {
		f := testFabric(t, 3, 42)
		topo := f.Topology()
		rng := rand.New(rand.NewSource(7))
		var msgs []*Message
		for i := 0; i < 40; i++ {
			src := topology.NodeID(rng.Intn(topo.NumNodes()))
			dst := topology.NodeID(rng.Intn(topo.NumNodes()))
			msgs = append(msgs, f.Send(src, dst, 1+rng.Intn(32*1024), routing.Mode(i%4)))
		}
		end := f.Kernel().Run()
		agg := f.Counters().Aggregate(nil)
		return end, agg.TotalFlits(), agg.TotalStalls()
	}
	e1, f1, s1 := run()
	e2, f2, s2 := run()
	if e1 != e2 || f1 != f2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%v,%d,%g) vs (%v,%d,%g)", e1, f1, s1, e2, f2, s2)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// A single large same-group transfer is bounded below by the NIC
	// injection rate (adaptive routing may stripe it across several
	// router paths, so the single-link rate is NOT a bound) and should
	// stay within 3x of that ideal.
	f := testFabric(t, 3, 8)
	topo := f.Topology()
	const bytes = 8 << 20
	dst := topology.NodeID(2) // same chassis, different router
	m := f.Send(0, dst, bytes, routing.AD3)
	f.Kernel().Run()
	ideal := sim.Time(float64(bytes) / topo.Cfg.InjectionBandwidth * 1e12)
	if m.DeliveredAt < ideal {
		t.Fatalf("delivered faster than injection rate: %v < %v", m.DeliveredAt, ideal)
	}
	if m.DeliveredAt > 3*ideal {
		t.Fatalf("throughput too low: %v vs ideal %v", m.DeliveredAt, ideal)
	}
}

func TestNonMinimalUnderContention(t *testing.T) {
	// Many flows crossing group 0 -> group 1 under AD0: with only a few
	// global links, adaptive routing should send some packets Valiant.
	f := testFabric(t, 4, 9)
	topo := f.Topology()
	g1base := topo.Cfg.RoutersPerGroup() * topo.Cfg.NodesPerRouter
	for n := 0; n < 8; n++ {
		f.Send(topology.NodeID(n), topology.NodeID(g1base+n), 256*1024, routing.AD0)
	}
	f.Kernel().Run()
	if f.NonMinimalCount == 0 {
		t.Fatal("AD0 under heavy inter-group contention never took a non-minimal route")
	}
}

func TestAD3TakesFewerNonMinimal(t *testing.T) {
	count := func(mode routing.Mode) uint64 {
		f := testFabric(t, 4, 10)
		topo := f.Topology()
		g1base := topo.Cfg.RoutersPerGroup() * topo.Cfg.NodesPerRouter
		for n := 0; n < 8; n++ {
			f.Send(topology.NodeID(n), topology.NodeID(g1base+n), 256*1024, mode)
		}
		f.Kernel().Run()
		return f.NonMinimalCount
	}
	ad0, ad3 := count(routing.AD0), count(routing.AD3)
	if ad3 >= ad0 {
		t.Fatalf("AD3 took %d non-minimal routes, AD0 %d — bias not effective", ad3, ad0)
	}
}

func TestCounterSnapshotDelta(t *testing.T) {
	f := testFabric(t, 3, 11)
	f.Send(0, 20, 16*1024, routing.AD0)
	f.Kernel().Run()
	snap := f.Counters().Snapshot()
	f.Send(0, 20, 16*1024, routing.AD0)
	f.Kernel().Run()
	delta := f.Counters().Sub(snap)
	if delta.Aggregate(nil).TotalFlits() == 0 {
		t.Fatal("delta shows no new flits")
	}
	// Delta should be about half the final total.
	tot := f.Counters().Aggregate(nil).TotalFlits()
	d := delta.Aggregate(nil).TotalFlits()
	if d >= tot {
		t.Fatalf("delta %d >= total %d", d, tot)
	}
}

func TestRouterRatiosAndTileRatios(t *testing.T) {
	f := testFabric(t, 3, 12)
	for n := 1; n < 16; n++ {
		f.Send(topology.NodeID(n), 0, 32*1024, routing.AD0)
	}
	f.Kernel().Run()
	ratios := f.Counters().RouterRatios()
	if len(ratios) == 0 {
		t.Fatal("no router ratios")
	}
	for _, r := range ratios {
		if r < 0 {
			t.Fatalf("negative ratio %g", r)
		}
	}
	tr := f.Counters().TileRatios(nil, topology.TileRank1)
	if len(tr) == 0 {
		t.Fatal("no rank-1 tile ratios despite intra-group traffic")
	}
	// Naming every router in order is the same question as nil.
	all := make([]topology.RouterID, f.Topology().NumRouters())
	for i := range all {
		all[i] = topology.RouterID(i)
	}
	if got := f.Counters().TileRatios(all, topology.TileRank1); !reflect.DeepEqual(got, tr) {
		t.Fatalf("all-routers subset %v differs from nil %v", got, tr)
	}
}

// Property: random message batches always fully deliver, drain the fabric,
// and conserve packet counts.
func TestDeliveryProperty(t *testing.T) {
	f := func(seed int64, nMsgRaw uint8) bool {
		fab := testFabricQuick(seed)
		topo := fab.Topology()
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		n := 1 + int(nMsgRaw)%30
		var msgs []*Message
		for i := 0; i < n; i++ {
			src := topology.NodeID(rng.Intn(topo.NumNodes()))
			dst := topology.NodeID(rng.Intn(topo.NumNodes()))
			msgs = append(msgs, fab.Send(src, dst, 1+rng.Intn(64*1024), routing.Mode(rng.Intn(4))))
		}
		fab.Kernel().Run()
		for _, m := range msgs {
			if !m.Done.Fired() {
				return false
			}
		}
		return fab.QueuedFlits() == 0 && fab.PacketsDelivered >= fab.PacketsSent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func testFabricQuick(seed int64) *Fabric {
	topo, err := topology.Build(topology.TestConfig(3))
	if err != nil {
		panic(err)
	}
	return New(sim.NewKernel(), topo, DefaultParams(), routing.DefaultConfig(), seed)
}
