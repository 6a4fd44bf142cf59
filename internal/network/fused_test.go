package network

import (
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// buildFusedPair constructs a FuseLinks fabric and a split-reference
// fabric over the same topology, params, and seed, on the configuration
// where the two models are provably the same physics:
//
//   - HopContention = 0: the only physical coarsening FuseLinks makes is
//     WHEN the hop-contention delay is priced (serialization start vs
//     end), so at hc=0 every fused event fires at exactly the time its
//     split counterparts would.
//
//   - Tie-free link timing: each link's latency and bandwidth get a
//     unique, physically negligible per-link perturbation so that link
//     completion and arrival timestamps are globally distinct. The
//     kernel breaks equal-timestamp ties by schedule order, and a fused
//     hop event is necessarily scheduled earlier (serialization start)
//     than the split model's arrival (serialization end) — so at an
//     exact picosecond collision the two models can legitimately resolve
//     a buffer-space race in different order. Distinct timestamps remove
//     ties, leaving the models observably identical; the production
//     config (rampant ties: every full packet is exactly one MTU) is
//     validated by the figure-tolerance tests in internal/experiments
//     instead.
func buildFusedPair(t testing.TB, groups int, seed int64, hc float64) (fused, ref *Fabric) {
	t.Helper()
	build := func(fuse bool) *Fabric {
		topo, err := topology.Build(topology.TestConfig(groups))
		if err != nil {
			t.Fatal(err)
		}
		for i := range topo.Links {
			topo.Links[i].Latency += sim.Time(i * 7)
			topo.Links[i].Bandwidth /= 1 + float64(i)*3e-4
		}
		params := DefaultParams()
		params.HopContention = hc
		params.FuseLinks = fuse
		f := New(sim.NewKernel(), topo, params, routing.DefaultConfig(), seed)
		// Decouple the inject and eject NIC flit clocks: with symmetric
		// rates, a delivery that simultaneously starts the next ejection
		// and a response injection finishes both at the same picosecond,
		// a structural timestamp tie at every busy NIC.
		ejBW := topo.Cfg.InjectionBandwidth * 1.0009765625
		for i := range f.servers {
			ej := &f.servers[i]
			if ej.kind != kindEject {
				continue
			}
			ej.bw = ejBW
			ej.flitTime = sim.Time(float64(FlitBytes) / ejBW * 1e12)
		}
		return f
	}
	return build(true), build(false)
}

// driveTrafficStaggered issues the same traffic mix as driveTraffic but
// schedules each send at a distinct picosecond offset instead of all at
// t=0. Simultaneous sends serialize on identical NIC flit clocks and so
// tie constantly; staggering keeps the equivalence runs tie-free (which
// runFusedPair requires for its identity check to engage) without
// changing what is sent.
func driveTrafficStaggered(f *Fabric, rng *rand.Rand, msgs int) (msgList []*Message, totalBytes int) {
	n := f.Topology().NumNodes()
	msgList = make([]*Message, msgs)
	for i := 0; i < msgs; i++ {
		src := topology.NodeID(rng.Intn(n))
		dst := topology.NodeID(rng.Intn(n))
		for src == dst {
			dst = topology.NodeID(rng.Intn(n))
		}
		bytes := 1 + rng.Intn(3*PacketBytes)
		mode := routing.Mode(rng.Intn(4))
		totalBytes += bytes
		i := i
		f.Kernel().SpawnAt(sim.Time(1+i*641), func(*sim.Proc) {
			msgList[i] = f.Send(src, dst, bytes, mode)
		})
	}
	return msgList, totalBytes
}

// runFusedPair drives identical traffic through a fused and a split
// fabric at HopContention=0. When neither run hit a kernel timestamp tie
// (the per-link perturbation makes this the overwhelmingly common case),
// it fails on ANY observable divergence: final virtual time, packet and
// route-class counts, per-class transit-time sums, per-message delivery
// times, every tile counter, and ORB samples. When a tie did occur —
// fuzzed seeds can still produce integer-picosecond birthday collisions —
// the two models can legitimately resolve a buffer-space race in
// different schedule order, so only the tie-robust conservation set is
// checked. Returns whether both runs were tie-free, so named-seed tests
// can assert the identity check was not vacuously skipped, and both
// runs' event-stream digests (fused first).
func runFusedPair(t *testing.T, seed int64, msgs int) (tieFree bool, digests [2]uint64) {
	t.Helper()
	ff, fr := buildFusedPair(t, 3, seed, 0)

	mf, bytesF := driveTrafficStaggered(ff, rand.New(rand.NewSource(seed+1)), msgs)
	mr, bytesR := driveTrafficStaggered(fr, rand.New(rand.NewSource(seed+1)), msgs)
	if bytesF != bytesR {
		t.Fatalf("traffic generators diverged: %d vs %d bytes", bytesF, bytesR)
	}
	endF, endR := ff.Kernel().Run(), fr.Kernel().Run()

	// Conservation properties hold regardless of tie resolution.
	for i := range mf {
		if !mf[i].Done.Fired() || !mr[i].Done.Fired() {
			t.Fatalf("seed %d: message %d undelivered (fused=%v reference=%v)",
				seed, i, mf[i].Done.Fired(), mr[i].Done.Fired())
		}
	}
	if ff.PacketsDelivered < ff.PacketsSent {
		t.Fatalf("seed %d: fused delivered %d of %d sent", seed, ff.PacketsDelivered, ff.PacketsSent)
	}
	if q := ff.QueuedFlits(); q != 0 {
		t.Fatalf("seed %d: fused QueuedFlits=%d after drain", seed, q)
	}
	checkPoolInvariants(t, ff)

	// The property is vacuous if no hop actually fused: whenever any
	// packet traversed a network link (degenerate traffic may route
	// entirely NIC-to-NIC within one router, and NIC hops never fuse),
	// the fused run must execute strictly fewer kernel events.
	agg := ff.Counters().Aggregate(nil)
	netFlits := agg.Flits[topology.TileRank1] + agg.Flits[topology.TileRank2] + agg.Flits[topology.TileRank3]
	evF := ff.Kernel().Stats().EventsExecuted
	evR := fr.Kernel().Stats().EventsExecuted
	if netFlits > 0 && evF >= evR {
		t.Fatalf("seed %d: fused run executed %d events, reference %d; no hop fused",
			seed, evF, evR)
	}

	digests = [2]uint64{ff.Kernel().Stats().Digest, fr.Kernel().Stats().Digest}
	tiesF := ff.Kernel().Stats().TimestampTies
	tiesR := fr.Kernel().Stats().TimestampTies
	if tiesF != 0 || tiesR != 0 {
		// Same-timestamp heap events fired: schedule order (which the two
		// models necessarily differ on — a fused hop is scheduled at
		// serialization start, a split arrival at serialization end) may
		// have decided a contention race. Identity is not owed here.
		return false, digests
	}

	if endF != endR {
		t.Fatalf("seed %d: final time %v (fused) vs %v (reference)", seed, endF, endR)
	}
	if ff.PacketsSent != fr.PacketsSent || ff.PacketsDelivered != fr.PacketsDelivered {
		t.Fatalf("seed %d: sent/delivered %d/%d vs %d/%d",
			seed, ff.PacketsSent, ff.PacketsDelivered, fr.PacketsSent, fr.PacketsDelivered)
	}
	if ff.MinimalTransit != fr.MinimalTransit || ff.NonMinimalTransit != fr.NonMinimalTransit ||
		ff.MinimalCount != fr.MinimalCount || ff.NonMinimalCount != fr.NonMinimalCount {
		t.Fatalf("seed %d: transit sums %v/%d %v/%d vs %v/%d %v/%d",
			seed, ff.MinimalTransit, ff.MinimalCount, ff.NonMinimalTransit, ff.NonMinimalCount,
			fr.MinimalTransit, fr.MinimalCount, fr.NonMinimalTransit, fr.NonMinimalCount)
	}
	for i := range mf {
		if mf[i].DeliveredAt != mr[i].DeliveredAt {
			t.Fatalf("seed %d: message %d delivered at %v (fused) vs %v (reference)",
				seed, i, mf[i].DeliveredAt, mr[i].DeliveredAt)
		}
	}
	cf, cr := ff.Counters(), fr.Counters()
	for r := range cf.Flits {
		for tl := range cf.Flits[r] {
			if cf.Flits[r][tl] != cr.Flits[r][tl] {
				t.Fatalf("seed %d: router %d tile %d flits %d vs %d",
					seed, r, tl, cf.Flits[r][tl], cr.Flits[r][tl])
			}
			if cf.Stalls[r][tl] != cr.Stalls[r][tl] {
				t.Fatalf("seed %d: router %d tile %d stalls %v vs %v",
					seed, r, tl, cf.Stalls[r][tl], cr.Stalls[r][tl])
			}
		}
	}
	for n := range cf.ORBCount {
		if cf.ORBCount[n] != cr.ORBCount[n] || cf.ORBTimeSum[n] != cr.ORBTimeSum[n] {
			t.Fatalf("seed %d: node %d ORB %d/%v vs %d/%v",
				seed, n, cf.ORBCount[n], cf.ORBTimeSum[n], cr.ORBCount[n], cr.ORBTimeSum[n])
		}
	}
	return true, digests
}

// TestFusedMatchesReference is the fused-vs-split equivalence property
// over a spread of seeds, at the HopContention=0 point where the two
// models are provably the same physics. The named seeds must be tie-free
// so the byte-identity comparison actually runs.
func TestFusedMatchesReference(t *testing.T) {
	// The event-stream digests (fused, reference) recorded for each named
	// seed. Both streams are tie-free, so they pin the kernel's exact
	// event order on a second workload besides the dragonsim guard: a
	// kernel change that must not reorder events (the event queue, the
	// proc handoff) leaves them as they are; an intended change of fabric
	// behaviour updates them here.
	want := map[int64][2]uint64{
		5:  {0x121709b3b6c6feb4, 0xd642ff1c6e034a35},
		7:  {0x6477460d4538aaba, 0x809b63483791c192},
		17: {0xb1c01590833d5852, 0x277e81aaefd498a3},
		19: {0xf1ef0138f6ca06e4, 0x5ffbecf0ea702481},
	}
	for _, seed := range []int64{5, 7, 17, 19} {
		tieFree, digests := runFusedPair(t, seed, 80)
		if !tieFree {
			t.Errorf("seed %d hit a timestamp tie; identity check skipped — pick a different named seed", seed)
		}
		if digests != want[seed] {
			t.Errorf("seed %d: event digests (fused, reference) = %#x, recorded %#x", seed, digests, want[seed])
		}
	}
}

// TestFusedSamplePointEquivalence steps a fused and a split fabric in
// lockstep and compares every externally sampled quantity mid-flight —
// tile flit totals and buffered-flit totals — at each step. This pins
// the settle contract: deferred fused completions must be invisible at
// any sampling instant, not just after drain (LDMS ticks and autoperf
// snapshots read counters while traffic is in flight).
func TestFusedSamplePointEquivalence(t *testing.T) {
	ff, fr := buildFusedPair(t, 3, 77, 0)
	driveTraffic(ff, rand.New(rand.NewSource(78)), 60)
	driveTraffic(fr, rand.New(rand.NewSource(78)), 60)

	flitSum := func(f *Fabric) uint64 {
		var total uint64
		c := f.Counters()
		for r := range c.Flits {
			for _, v := range c.Flits[r] {
				total += v
			}
		}
		return total
	}
	deadline := sim.Time(0)
	for ff.Kernel().Pending() > 0 || fr.Kernel().Pending() > 0 {
		deadline += 200 * sim.Nanosecond
		ff.Kernel().RunUntil(deadline)
		fr.Kernel().RunUntil(deadline)
		if gf, gr := flitSum(ff), flitSum(fr); gf != gr {
			t.Fatalf("at t=%v fused tile flits=%d reference=%d", deadline, gf, gr)
		}
		if qf, qr := ff.QueuedFlits(), fr.QueuedFlits(); qf != qr {
			t.Fatalf("at t=%v fused QueuedFlits=%d reference=%d", deadline, qf, qr)
		}
	}
}

// TestFusedContentionDrains runs the fused model with the full default
// physics (HopContention > 0, where fused and split legitimately differ
// by one serialization time of contention staleness) and checks the
// conservation properties that must hold regardless: every message
// delivers, counts balance, and the fabric drains.
func TestFusedContentionDrains(t *testing.T) {
	topo, err := topology.Build(topology.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.FuseLinks = true
	f := New(sim.NewKernel(), topo, params, routing.DefaultConfig(), 9)
	msgs, _ := driveTraffic(f, rand.New(rand.NewSource(10)), 120)
	f.Kernel().Run()

	for i, m := range msgs {
		if !m.Done.Fired() {
			t.Fatalf("message %d never delivered under fused contention model", i)
		}
	}
	if f.PacketsDelivered != f.PacketsSent+(f.PacketsDelivered-f.PacketsSent) ||
		f.PacketsDelivered < f.PacketsSent {
		t.Fatalf("delivered %d < sent %d", f.PacketsDelivered, f.PacketsSent)
	}
	if q := f.QueuedFlits(); q != 0 {
		t.Fatalf("QueuedFlits=%d after drain, want 0", q)
	}
	checkPoolInvariants(t, f)
}

// FuzzFusedVsReference fuzzes the fused-vs-split equivalence over
// arbitrary seeds and traffic volumes, cross-checking delivered-packet
// counts and transit-time sums (among every other observable runFusedPair
// compares).
func FuzzFusedVsReference(f *testing.F) {
	f.Add(int64(3), uint8(20))
	f.Add(int64(999), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, msgs uint8) {
		runFusedPair(t, seed, 1+int(msgs)%100)
	})
}

// eventsPerPacket replays the BenchmarkPacketDelivery workload (random
// 4KB sends across a 4-group dragonfly, all injected at t=0) and returns
// kernel events executed per sent packet.
func eventsPerPacket(t *testing.T, fuse bool, packets int) float64 {
	t.Helper()
	topo, err := topology.Build(topology.TestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.FuseLinks = fuse
	k := sim.NewKernel()
	f := New(k, topo, params, routing.DefaultConfig(), 1)
	rng := rand.New(rand.NewSource(2))
	n := topo.NumNodes()
	for i := 0; i < packets; i++ {
		src := topology.NodeID(rng.Intn(n))
		dst := topology.NodeID(rng.Intn(n))
		f.Send(src, dst, 4096, routing.AD0)
	}
	k.Run()
	return float64(k.Stats().EventsExecuted) / float64(packets)
}

// TestEventsPerPacketCeiling is the regression gate on the event count
// itself: link fusion must keep the benchmark workload at or below 17.5
// events per packet, and the split reference must stay at its own
// pre-fusion ceiling. (BENCH_7.json records the measured values; this
// gate keeps both paths from silently regressing.)
func TestEventsPerPacketCeiling(t *testing.T) {
	const packets = 2000
	fused := eventsPerPacket(t, true, packets)
	ref := eventsPerPacket(t, false, packets)
	t.Logf("events/packet: fused %.2f (ceiling 17.5), reference %.2f (ceiling 21.0)", fused, ref)
	if fused > 17.5 {
		t.Errorf("fused events/packet = %.2f, ceiling 17.5", fused)
	}
	if ref > 21.0 {
		t.Errorf("reference events/packet = %.2f, ceiling 21.0", ref)
	}
}
