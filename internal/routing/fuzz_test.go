package routing

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// clampFuzz maps an arbitrary fuzzed byte into [lo, hi].
func clampFuzz(v uint8, lo, hi int) int {
	return lo + int(v)%(hi-lo+1)
}

// FuzzMinimalPaths drives MinimalOnly routing over randomized small
// dragonfly shapes and random endpoint pairs. Properties (validatePath):
// the path is link-contiguous from src to dst, minimal routes take at
// most 5 router-to-router hops (<=2 intra-group to the gateway, 1 rank-3
// crossing, <=2 intra-group to the destination), and neither a minimal
// nor a Valiant route exceeds MaxPathLinks. The f.Add corpus doubles
// as a regression suite under plain `go test`.
func FuzzMinimalPaths(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(1), uint8(1), uint16(0), uint16(1), int64(1))
	f.Add(uint8(4), uint8(2), uint8(4), uint8(4), uint16(3), uint16(29), int64(7))
	f.Add(uint8(8), uint8(3), uint8(2), uint8(1), uint16(100), uint16(5), int64(42))
	f.Add(uint8(12), uint8(2), uint8(3), uint8(2), uint16(65535), uint16(0), int64(-9))
	f.Add(uint8(3), uint8(1), uint8(2), uint8(12), uint16(17), uint16(17), int64(0))

	f.Fuzz(func(t *testing.T, groups, chassis, slots, r3links uint8,
		srcRaw, dstRaw uint16, rngSeed int64) {

		cfg := topology.TestConfig(clampFuzz(groups, 2, 12))
		cfg.ChassisPerGroup = clampFuzz(chassis, 1, 3)
		cfg.SlotsPerChassis = clampFuzz(slots, 1, 4)
		cfg.GlobalLinksPerPair = clampFuzz(r3links, 1, 12)
		cfg.ActiveNodes = cfg.Capacity()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("clamped config invalid: %v", err)
		}
		topo, err := topology.Build(cfg)
		if err != nil {
			t.Fatalf("build %+v: %v", cfg, err)
		}
		e := NewEngine(topo, nil, DefaultConfig())
		rng := rand.New(rand.NewSource(rngSeed))

		src := topology.RouterID(int(srcRaw) % topo.NumRouters())
		dst := topology.RouterID(int(dstRaw) % topo.NumRouters())
		links, nonMin := route(e, MinimalOnly, rng, src, dst, 0)
		if nonMin {
			t.Fatalf("MinimalOnly route %d->%d marked non-minimal", src, dst)
		}
		validatePath(t, topo, src, dst, links, false)
		if src == dst && len(links) != 0 {
			t.Fatalf("self route has %d hops", len(links))
		}
		// Valiant paths are the longest the engine builds; packets store
		// routes inline in MaxPathLinks-sized arrays.
		links, nonMin = route(e, ValiantOnly, rng, src, dst, 0)
		validatePath(t, topo, src, dst, links, nonMin)
	})
}
