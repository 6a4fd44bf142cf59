package network

import (
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// warmFabric drives enough random traffic through f to reach steady
// state: the packet arena, event heap, per-VC queues, waiter slices, and
// routing scratch have all grown to their working sizes.
func warmFabric(tb testing.TB, f *Fabric, msgs int) {
	tb.Helper()
	topo := f.Topology()
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < msgs; i++ {
		src := topology.NodeID(rng.Intn(topo.NumNodes()))
		dst := topology.NodeID(rng.Intn(topo.NumNodes()))
		for src == dst {
			dst = topology.NodeID(rng.Intn(topo.NumNodes()))
		}
		f.Send(src, dst, 1+rng.Intn(4*PacketBytes), routing.Mode(i%4))
	}
	f.Kernel().Run()
}

// injectRaw pushes one pooled data packet into src's injection queue,
// bypassing Send's Message envelope (which is per-transfer, not
// per-packet, and so allowed to allocate). This isolates exactly the
// per-packet machinery: routing, serialization, propagation, arbitration,
// backpressure, delivery, response generation, recycling.
func (f *Fabric) injectRaw(src, dst topology.NodeID, bytes int) {
	p := f.allocPacket()
	p.src, p.dst = src, dst
	p.bytes, p.flits = bytes, f.flitsOf(bytes)
	p.sendTime = f.k.Now()
	inj := f.enqueue(p)
	f.PacketsSent++
	f.tryStart(inj)
}

// TestPacketHopAllocFree is the fabric's allocation budget: in steady
// state, a packet's complete life cycle — adaptive routing (including the
// response packet it triggers), every hop's serialization and propagation
// event, delivery, and recycling — must execute zero heap allocations.
// This is the tentpole invariant of the zero-allocation hot path; any new
// per-packet allocation fails here before it shows up in GC profiles.
// It pins the split reference model explicitly (FuseLinks now defaults
// on); the fused budget is TestPacketHopAllocFreeFused.
func TestPacketHopAllocFree(t *testing.T) {
	topo, err := topology.Build(topology.TestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.FuseLinks = false
	f := New(sim.NewKernel(), topo, params, routing.DefaultConfig(), 77)
	warmFabric(t, f, 400)

	rng := rand.New(rand.NewSource(5))
	n := topo.NumNodes()
	const perRun = 32
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < perRun; i++ {
			src := topology.NodeID(rng.Intn(n))
			dst := topology.NodeID(rng.Intn(n))
			for src == dst {
				dst = topology.NodeID(rng.Intn(n))
			}
			f.injectRaw(src, dst, PacketBytes)
		}
		f.Kernel().Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state packet path allocated %.2f times per %d packets, want 0",
			allocs, perRun)
	}
}

// TestPacketHopAllocFreeFused is the same allocation budget with
// Params.FuseLinks on: the fused evHopDone path (and the lazy settle
// machinery it leans on — deferred sender completion, evSettle
// scheduling, backdated occupancy integration) must stay allocation-free
// too, or fusion would trade event count for GC pressure.
func TestPacketHopAllocFreeFused(t *testing.T) {
	topo, err := topology.Build(topology.TestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.FuseLinks = true
	f := New(sim.NewKernel(), topo, params, routing.DefaultConfig(), 77)
	warmFabric(t, f, 400)

	rng := rand.New(rand.NewSource(5))
	n := topo.NumNodes()
	const perRun = 32
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < perRun; i++ {
			src := topology.NodeID(rng.Intn(n))
			dst := topology.NodeID(rng.Intn(n))
			for src == dst {
				dst = topology.NodeID(rng.Intn(n))
			}
			f.injectRaw(src, dst, PacketBytes)
		}
		f.Kernel().Run()
	})
	if allocs != 0 {
		t.Fatalf("fused steady-state packet path allocated %.2f times per %d packets, want 0",
			allocs, perRun)
	}
}

// TestRouteDecisionAllocFree pins the routing engine's scratch-buffer
// discipline: a RouteInto decision reuses engine scratch and the caller's
// route buffer, allocating nothing once both are warm.
func TestRouteDecisionAllocFree(t *testing.T) {
	topo, err := topology.Build(topology.TestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	eng := routing.NewEngine(topo, nil, routing.DefaultConfig())
	rng := rand.New(rand.NewSource(9))
	nr := topo.NumRouters()
	buf := make([]topology.LinkID, 0, 16)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			src := topology.RouterID(rng.Intn(nr))
			dst := topology.RouterID(rng.Intn(nr))
			var nm bool
			buf, nm = eng.RouteInto(buf[:0], routing.Mode(i%4), rng, src, dst, 0)
			_ = nm
		}
	})
	if allocs != 0 {
		t.Fatalf("RouteInto allocated %.2f times per 16 decisions, want 0", allocs)
	}
}
