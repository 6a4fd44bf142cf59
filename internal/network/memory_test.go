package network

import (
	"runtime"
	"testing"

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
