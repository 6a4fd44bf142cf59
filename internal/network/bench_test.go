package network

import (
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkPacketDelivery measures end-to-end fabric throughput in
// packets: random 4KB sends across a 4-group dragonfly.
func BenchmarkPacketDelivery(b *testing.B) {
	benchPacketDelivery(b, false)
}

// BenchmarkPacketDeliveryFused is the same workload with Params.FuseLinks
// on: each link hop whose reservation succeeds at serialization start
// collapses finishTx+arrive into one event, so the events/pkt metric —
// the deterministic cost proxy, immune to host noise — must come in
// under the reference run's (see TestEventsPerPacketCeiling for the
// hard bounds).
func BenchmarkPacketDeliveryFused(b *testing.B) {
	benchPacketDelivery(b, true)
}

func benchPacketDelivery(b *testing.B, fuse bool) {
	topo, err := topology.Build(topology.TestConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams()
	params.FuseLinks = fuse
	k := sim.NewKernel()
	f := New(k, topo, params, routing.DefaultConfig(), 1)
	rng := rand.New(rand.NewSource(2))
	n := topo.NumNodes()
	for i := 0; i < b.N; i++ {
		src := topology.NodeID(rng.Intn(n))
		dst := topology.NodeID(rng.Intn(n))
		f.Send(src, dst, 4096, routing.AD0)
	}
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Stats().EventsExecuted)/float64(b.N), "events/pkt")
}

// BenchmarkRouteInto measures the per-packet routing decision cost
// (candidate sampling + load scoring) under live load state, through the
// engine scratch and a reused caller buffer as on the fabric's hot path.
// Run with -benchmem: this must report 0 allocs/op.
func BenchmarkRouteInto(b *testing.B) {
	topo, err := topology.Build(topology.ThetaMiniConfig())
	if err != nil {
		b.Fatal(err)
	}
	k := sim.NewKernel()
	f := New(k, topo, DefaultParams(), routing.DefaultConfig(), 1)
	rng := rand.New(rand.NewSource(3))
	eng := routing.NewEngine(topo, f, routing.DefaultConfig())
	nr := topo.NumRouters()
	buf := make([]topology.LinkID, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := topology.RouterID(rng.Intn(nr))
		dst := topology.RouterID(rng.Intn(nr))
		buf, _ = eng.RouteInto(buf[:0], routing.AD0, rng, src, dst, 0)
	}
}
