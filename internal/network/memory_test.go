package network

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// retainedBytes measures the retained heap attributable to build's
// return value: GC-settled heap before, minus GC-settled heap after,
// with everything else build allocated dead by then.
func retainedBytes(t *testing.T, build func() any) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	d := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(kept)
	return d
}

// TestFabricFootprint bounds what a freshly built full-size Theta fabric
// keeps on the heap. Almost all of it is per-server state for queues that
// are empty most of the time, so it scales with the server count (~45k on
// Theta), not with traffic: per-VC queues must stay list headers into the
// packet arena rather than pre-sized buffers of their own.
func TestFabricFootprint(t *testing.T) {
	const budget = 32 << 20
	topo, err := topology.Build(topology.ThetaConfig())
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	got := retainedBytes(t, func() any {
		return New(k, topo, DefaultParams(), routing.DefaultConfig(), 1)
	})
	t.Logf("Theta fabric (%d links, %d node slots): %.1f MB retained (budget %d MB)",
		len(topo.Links), topo.Cfg.Capacity(), float64(got)/(1<<20), budget>>20)
	if got > budget {
		t.Errorf("network.New on Theta retains %d bytes, over the %d-byte budget", got, budget)
	}
}

// TestHotLayout pins the cache layout of the per-hop state. A server is
// exactly 256 bytes, so every entry of the Fabric.servers slab starts on a
// cache line, and the fields arbitration and downstream checks read sit in
// that first line. A Packet is exactly 128 bytes with its route inline,
// and a fresh slab chunk starts on a cache line, so every packet slot
// does. A field added to either struct must keep these, or move the
// layout on deliberately with this test.
func TestHotLayout(t *testing.T) {
	if got := unsafe.Sizeof(server{}); got != 256 {
		t.Errorf("server is %d bytes, want 256", got)
	}
	var s server
	hot := map[string]uintptr{
		"kind":      unsafe.Offsetof(s.kind),
		"busy":      unsafe.Offsetof(s.busy),
		"blocked":   unsafe.Offsetof(s.blocked),
		"pendingTx": unsafe.Offsetof(s.pendingTx),
		"idx":       unsafe.Offsetof(s.idx),
		"nonEmpty":  unsafe.Offsetof(s.nonEmpty),
		"settleEvt": unsafe.Offsetof(s.settleEvt),
		"lastVC":    unsafe.Offsetof(s.lastVC),
		"occTotal":  unsafe.Offsetof(s.occTotal),
		"capFlits":  unsafe.Offsetof(s.capFlits),
		"freeAt":    unsafe.Offsetof(s.freeAt),
		"flitTime":  unsafe.Offsetof(s.flitTime),
		"bw":        unsafe.Offsetof(s.bw),
	}
	for name, off := range hot {
		if off >= 64 {
			t.Errorf("server.%s at offset %d, outside the first cache line", name, off)
		}
	}
	if got := unsafe.Sizeof(linkLoad{}); got != 32 {
		t.Errorf("linkLoad is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Packet{}); got != 128 {
		t.Errorf("Packet is %d bytes, want 128", got)
	}
	f := testFabric(t, 2, 1)
	if addr := uintptr(unsafe.Pointer(f.allocPacket())); addr%64 != 0 {
		t.Errorf("slot 0 of a fresh slab chunk at %#x, not 64-byte aligned", addr)
	}
	var p Packet
	end := unsafe.Offsetof(p.route) + 8*unsafe.Sizeof(p.route[0])
	for name, off := range map[string]uintptr{
		"qnext": unsafe.Offsetof(p.qnext), "dst": unsafe.Offsetof(p.dst),
		"hop": unsafe.Offsetof(p.hop), "nroute": unsafe.Offsetof(p.nroute),
		"route[:8]": end - 1,
	} {
		if off >= 64 {
			t.Errorf("Packet.%s at offset %d, outside the first cache line", name, off)
		}
	}
}
