package network

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topology"
)

func countersFixture(t testing.TB) *Counters {
	t.Helper()
	topo, err := topology.Build(topology.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	return NewCounters(topo)
}

func TestCountersZeroValue(t *testing.T) {
	c := countersFixture(t)
	agg := c.Aggregate(nil)
	if agg.TotalFlits() != 0 || agg.TotalStalls() != 0 {
		t.Fatal("fresh counters not zero")
	}
	if len(c.RouterRatios()) != 0 {
		t.Fatal("zero-flit routers should produce no ratios")
	}
	if c.MeanORBLatency(0) != 0 {
		t.Fatal("ORB latency without samples should be 0")
	}
}

func TestCountersSnapshotIndependence(t *testing.T) {
	c := countersFixture(t)
	c.Flits[0][0] = 10
	c.Stalls[0][0] = 5
	snap := c.Snapshot()
	c.Flits[0][0] = 99
	c.Stalls[0][0] = 99
	if snap.Flits[0][0] != 10 || snap.Stalls[0][0] != 5 {
		t.Fatal("snapshot aliases live counters")
	}
}

func TestCountersSub(t *testing.T) {
	c := countersFixture(t)
	c.Flits[1][2] = 7
	c.ORBTimeSum[3] = 100 * sim.Microsecond
	c.ORBCount[3] = 4
	before := c.Snapshot()
	c.Flits[1][2] = 20
	c.Stalls[1][2] = 6
	c.ORBTimeSum[3] = 180 * sim.Microsecond
	c.ORBCount[3] = 6
	d := c.Sub(before)
	if d.Flits[1][2] != 13 || d.Stalls[1][2] != 6 {
		t.Fatalf("delta = %d/%g", d.Flits[1][2], d.Stalls[1][2])
	}
	if d.ORBCount[3] != 2 || d.MeanORBLatency(3) != 40*sim.Microsecond {
		t.Fatalf("ORB delta: count=%d mean=%v", d.ORBCount[3], d.MeanORBLatency(3))
	}
}

func TestAggregateByClassAndSubset(t *testing.T) {
	c := countersFixture(t)
	topo := c.topo
	// Put flits on a known rank-1 tile of router 0 and router 5.
	var r1tile int
	for tile := 0; tile < topo.TilesPerRouter(); tile++ {
		if topo.TileClassOf(tile) == topology.TileRank1 {
			r1tile = tile
			break
		}
	}
	c.Flits[0][r1tile] = 100
	c.Stalls[0][r1tile] = 50
	c.Flits[5][r1tile] = 40

	all := c.Aggregate(nil)
	if all.Flits[topology.TileRank1] != 140 {
		t.Fatalf("rank1 flits = %d", all.Flits[topology.TileRank1])
	}
	if got := all.Ratio(topology.TileRank1); got != 50.0/140 {
		t.Fatalf("ratio = %g", got)
	}
	if all.Ratio(topology.TileRank3) != 0 {
		t.Fatal("zero-flit class ratio should be 0")
	}

	sub := c.Aggregate([]topology.RouterID{0})
	if sub.Flits[topology.TileRank1] != 100 {
		t.Fatalf("subset flits = %d", sub.Flits[topology.TileRank1])
	}
}

func TestTileRatiosClassFilter(t *testing.T) {
	c := countersFixture(t)
	topo := c.topo
	for tile := 0; tile < topo.TilesPerRouter(); tile++ {
		c.Flits[2][tile] = 10
		c.Stalls[2][tile] = float64(tile)
	}
	for class := topology.TileClass(0); class < topology.NumTileClasses; class++ {
		ratios := c.TileRatios(nil, class)
		if len(ratios) == 0 {
			t.Fatalf("no ratios for class %v", class)
		}
	}
	// Total tile ratio samples must equal tiles per router (one router
	// has traffic).
	total := 0
	for class := topology.TileClass(0); class < topology.NumTileClasses; class++ {
		total += len(c.TileRatios(nil, class))
	}
	if total != topo.TilesPerRouter() {
		t.Fatalf("ratio samples = %d, want %d", total, topo.TilesPerRouter())
	}
}

// TestTileRatiosRouterSubset checks a router subset against filtering the
// all-routers result: each tile's ratio encodes its router, so the subset
// must be exactly the all-routers ratios whose router is in the subset,
// in the same order.
func TestTileRatiosRouterSubset(t *testing.T) {
	c := countersFixture(t)
	const scale = 1000 // ratio = router*scale + tile: decodable back to its router
	for r := range c.Flits {
		if r%3 == 1 {
			continue // idle routers contribute no ratios
		}
		for tile := range c.Flits[r] {
			c.Flits[r][tile] = 1
			c.Stalls[r][tile] = float64(r*scale + tile)
		}
	}
	subset := []topology.RouterID{0, 1, 4, 5, topology.RouterID(len(c.Flits) - 1)}
	in := map[int]bool{}
	for _, r := range subset {
		in[int(r)] = true
	}
	for class := topology.TileClass(0); class < topology.NumTileClasses; class++ {
		var want []float64
		for _, v := range c.TileRatios(nil, class) {
			if in[int(v)/scale] {
				want = append(want, v)
			}
		}
		got := c.TileRatios(subset, class)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("class %v: subset ratios %v, want %v", class, got, want)
		}
	}
}

// Property: Sub(snapshot) of a monotonically grown counter set is always
// non-negative and adds back up to the final totals.
func TestCountersDeltaProperty(t *testing.T) {
	topo, err := topology.Build(topology.TestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	f := func(incA, incB []uint8) bool {
		c := NewCounters(topo)
		apply := func(incs []uint8) {
			for i, v := range incs {
				r := i % len(c.Flits)
				tile := int(v) % len(c.Flits[r])
				c.Flits[r][tile] += uint64(v)
				c.Stalls[r][tile] += float64(v) / 2
			}
		}
		apply(incA)
		snap := c.Snapshot()
		apply(incB)
		d := c.Sub(snap)
		dAgg := d.Aggregate(nil)
		sAgg := snap.Aggregate(nil)
		cAgg := c.Aggregate(nil)
		return dAgg.TotalFlits()+sAgg.TotalFlits() == cAgg.TotalFlits()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestServerCounterIndex checks every server's precomputed counter index
// against the tile the topology assigns it, for both packet kinds: a
// link's output tile on its source router, and a NIC's processor request
// or response tile on its node's router.
func TestServerCounterIndex(t *testing.T) {
	f := testFabric(t, 3, 1)
	topo := f.Topology()
	tiles := topo.TilesPerRouter()
	for i := range f.servers {
		s := &f.servers[i]
		for _, rsp := range []bool{false, true} {
			var r topology.RouterID
			var tile int
			if i < len(topo.Links) {
				r, tile = topo.Links[i].Src, topo.Links[i].Tile
			} else {
				node := topology.NodeID((i - len(topo.Links)) / 2) // each node's injection, then ejection server
				r = topo.RouterOfNode(node)
				tile = topo.ProcReqTile(topo.NICIndexOfNode(node))
				if rsp {
					tile = topo.ProcRspTile(topo.NICIndexOfNode(node))
				}
			}
			want := int(r)*tiles + tile
			if got := s.counter(&Packet{response: rsp}); int(got) != want {
				t.Fatalf("server %d (kind %d) response=%v: counter index %d, want router %d tile %d = %d",
					i, s.kind, rsp, got, r, tile, want)
			}
		}
	}
}
