package topology

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := TestConfig(3)
	if err := good.Validate(); err != nil {
		t.Fatalf("TestConfig(3) invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Groups = 1 },
		func(c *Config) { c.ChassisPerGroup = 0 },
		func(c *Config) { c.SlotsPerChassis = 0 },
		func(c *Config) { c.NodesPerRouter = 0 },
		func(c *Config) { c.ActiveNodes = 0 },
		func(c *Config) { c.ActiveNodes = c.Capacity() + 1 },
		func(c *Config) { c.GlobalLinksPerPair = 0 },
		func(c *Config) { c.Rank1Bandwidth = 0 },
		func(c *Config) { c.Rank3Bandwidth = -1 },
	}
	for i, mutate := range bad {
		c := TestConfig(3)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestProductionConfigs(t *testing.T) {
	theta := ThetaConfig()
	if err := theta.Validate(); err != nil {
		t.Fatalf("theta: %v", err)
	}
	if theta.Routers() != 12*96 {
		t.Errorf("theta routers = %d, want 1152", theta.Routers())
	}
	if theta.Capacity() < theta.ActiveNodes {
		t.Errorf("theta capacity %d < active %d", theta.Capacity(), theta.ActiveNodes)
	}
	cori := CoriConfig()
	if err := cori.Validate(); err != nil {
		t.Fatalf("cori: %v", err)
	}
	if cori.ActiveNodes != 9668 {
		t.Errorf("cori nodes = %d", cori.ActiveNodes)
	}
	if cori.GlobalLinksPerPair >= theta.GlobalLinksPerPair {
		t.Error("cori should have fewer global links per pair than theta (reduced bisection)")
	}
}

// TestByName pins the machine-name table: names come back sorted, each
// resolves to a valid configuration, and an unknown name's error lists
// every valid one.
func TestByName(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() = %v, not sorted", names)
	}
	for _, name := range names {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	_, err := ByName("summit")
	if err == nil {
		t.Fatal("ByName accepted an unknown name")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not list %q", err, name)
		}
	}
}

func mustBuild(t *testing.T, cfg Config) *Topology {
	t.Helper()
	tp, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build(%s): %v", cfg.Name, err)
	}
	return tp
}

func TestBuildRejectsInvalid(t *testing.T) {
	c := TestConfig(3)
	c.Groups = 0
	if _, err := Build(c); err == nil {
		t.Fatal("Build accepted invalid config")
	}
}

func TestRouterCoordinates(t *testing.T) {
	tp := mustBuild(t, TestConfig(3))
	cfg := tp.Cfg
	for _, r := range tp.Routers {
		back := int(r.Group)*cfg.RoutersPerGroup() + r.Chassis*cfg.SlotsPerChassis + r.Slot
		if back != int(r.ID) {
			t.Fatalf("router %d: coords (%d,%d,%d) round-trip to %d",
				r.ID, r.Group, r.Chassis, r.Slot, back)
		}
	}
}

func TestRank1Structure(t *testing.T) {
	tp := mustBuild(t, TestConfig(3))
	cfg := tp.Cfg
	for _, r := range tp.Routers {
		peers := 0
		base := int(r.ID) - r.Slot
		for s := 0; s < cfg.SlotsPerChassis; s++ {
			peer := RouterID(base + s)
			id := tp.R1Link(r.ID, peer)
			if s == r.Slot {
				if id != -1 {
					t.Fatalf("self rank-1 link on router %d", r.ID)
				}
				continue
			}
			if id < 0 {
				t.Fatalf("missing rank-1 link %d->%d", r.ID, peer)
			}
			l := tp.Link(id)
			if l.Src != r.ID || l.Dst != peer || l.Class != Rank1 {
				t.Fatalf("bad rank-1 link record: %+v", l)
			}
			peers++
		}
		if peers != cfg.SlotsPerChassis-1 {
			t.Fatalf("router %d has %d rank-1 peers", r.ID, peers)
		}
	}
	// Not rank-1 peers: different chassis.
	if tp.R1Link(0, RouterID(tp.Cfg.SlotsPerChassis)) != -1 {
		t.Fatal("cross-chassis rank-1 link should not exist")
	}
}

func TestRank2Structure(t *testing.T) {
	tp := mustBuild(t, TestConfig(3))
	cfg := tp.Cfg
	a := RouterID(0)                   // group 0, chassis 0, slot 0
	b := RouterID(cfg.SlotsPerChassis) // group 0, chassis 1, slot 0
	ls := tp.R2Links(a, b)
	if len(ls) != cfg.Rank2LinksPerPair {
		t.Fatalf("R2Links(0,%d) = %d links, want %d", b, len(ls), cfg.Rank2LinksPerPair)
	}
	for _, id := range ls {
		l := tp.Link(id)
		if l.Src != a || l.Dst != b || l.Class != Rank2 {
			t.Fatalf("bad rank-2 link: %+v", l)
		}
	}
	if tp.R2Links(a, 1) != nil {
		t.Fatal("same-chassis routers must not have rank-2 links")
	}
	if tp.R2Links(a, a) != nil {
		t.Fatal("self rank-2 links must not exist")
	}
}

func TestRank3Structure(t *testing.T) {
	tp := mustBuild(t, TestConfig(4))
	cfg := tp.Cfg
	for a := 0; a < cfg.Groups; a++ {
		for b := 0; b < cfg.Groups; b++ {
			ls := tp.GlobalLinks(GroupID(a), GroupID(b))
			if a == b {
				if ls != nil {
					t.Fatalf("GlobalLinks(%d,%d) should be nil", a, b)
				}
				continue
			}
			if len(ls) != cfg.GlobalLinksPerPair {
				t.Fatalf("GlobalLinks(%d,%d) = %d, want %d", a, b, len(ls), cfg.GlobalLinksPerPair)
			}
			for _, id := range ls {
				l := tp.Link(id)
				if l.Class != Rank3 {
					t.Fatalf("global link has class %v", l.Class)
				}
				if tp.GroupOfRouter(l.Src) != GroupID(a) || tp.GroupOfRouter(l.Dst) != GroupID(b) {
					t.Fatalf("global link %d endpoints in wrong groups", id)
				}
			}
		}
	}
}

func TestLinkTileAssignment(t *testing.T) {
	tp := mustBuild(t, TestConfig(3))
	for _, l := range tp.Links {
		if l.Tile < 0 || l.Tile >= tp.TilesPerRouter() {
			t.Fatalf("link %d tile %d out of range 0..%d", l.ID, l.Tile, tp.TilesPerRouter())
		}
		var want TileClass
		switch l.Class {
		case Rank1:
			want = TileRank1
		case Rank2:
			want = TileRank2
		case Rank3:
			want = TileRank3
		}
		if got := tp.TileClassOf(l.Tile); got != want {
			t.Fatalf("link %d (class %v) on tile %d classified %v", l.ID, l.Class, l.Tile, got)
		}
	}
}

func TestProcTiles(t *testing.T) {
	tp := mustBuild(t, TestConfig(3))
	for i := 0; i < tp.Cfg.NodesPerRouter; i++ {
		req, rsp := tp.ProcReqTile(i), tp.ProcRspTile(i)
		if tp.TileClassOf(req) != TileProcReq {
			t.Fatalf("ProcReqTile(%d)=%d classified %v", i, req, tp.TileClassOf(req))
		}
		if tp.TileClassOf(rsp) != TileProcRsp {
			t.Fatalf("ProcRspTile(%d)=%d classified %v", i, rsp, tp.TileClassOf(rsp))
		}
	}
}

func TestNodeMapping(t *testing.T) {
	tp := mustBuild(t, TestConfig(3))
	cfg := tp.Cfg
	for n := 0; n < tp.NumNodes(); n++ {
		r := tp.RouterOfNode(NodeID(n))
		if int(r) != n/cfg.NodesPerRouter {
			t.Fatalf("node %d -> router %d", n, r)
		}
		if got := tp.NICIndexOfNode(NodeID(n)); got != n%cfg.NodesPerRouter {
			t.Fatalf("node %d NIC index %d", n, got)
		}
		if tp.GroupOfNode(NodeID(n)) != tp.GroupOfRouter(r) {
			t.Fatalf("node %d group mismatch", n)
		}
	}
}

func TestLinkCountFormula(t *testing.T) {
	tp := mustBuild(t, TestConfig(3))
	cfg := tp.Cfg
	s, ch, g := cfg.SlotsPerChassis, cfg.ChassisPerGroup, cfg.Groups
	wantR1 := g * ch * s * (s - 1)
	wantR2 := g * s * ch * (ch - 1) * cfg.Rank2LinksPerPair
	wantR3 := g * (g - 1) * cfg.GlobalLinksPerPair
	var gotR1, gotR2, gotR3 int
	for _, l := range tp.Links {
		switch l.Class {
		case Rank1:
			gotR1++
		case Rank2:
			gotR2++
		case Rank3:
			gotR3++
		}
	}
	if gotR1 != wantR1 || gotR2 != wantR2 || gotR3 != wantR3 {
		t.Fatalf("link counts r1=%d/%d r2=%d/%d r3=%d/%d",
			gotR1, wantR1, gotR2, wantR2, gotR3, wantR3)
	}
}

func TestBidirectionalSymmetry(t *testing.T) {
	tp := mustBuild(t, TestConfig(4))
	// Every directed link must have a reverse link of the same class.
	type key struct {
		src, dst RouterID
		class    LinkClass
	}
	count := map[key]int{}
	for _, l := range tp.Links {
		count[key{l.Src, l.Dst, l.Class}]++
	}
	for k, n := range count {
		rev := key{k.dst, k.src, k.class}
		if count[rev] != n {
			t.Fatalf("asymmetric links %v: %d forward, %d reverse", k, n, count[rev])
		}
	}
}

func TestThetaBuildScale(t *testing.T) {
	tp := mustBuild(t, ThetaConfig())
	if tp.NumRouters() != 1152 {
		t.Fatalf("theta routers = %d", tp.NumRouters())
	}
	if tp.NumNodes() != 4392 {
		t.Fatalf("theta nodes = %d", tp.NumNodes())
	}
	// Paper: ~40 network tiles + 8 processor tiles per router.
	if tp.TilesPerRouter() < 38 || tp.TilesPerRouter() > 50 {
		t.Fatalf("theta tiles per router = %d, want ~48", tp.TilesPerRouter())
	}
}

// Property: for random small configs, every router's outgoing links have
// distinct tiles within each class, and all endpoints are in-range.
func TestTopologyInvariantsProperty(t *testing.T) {
	f := func(gRaw, chRaw, slRaw, glRaw uint8) bool {
		cfg := TestConfig(2 + int(gRaw)%5)
		cfg.ChassisPerGroup = 1 + int(chRaw)%4
		cfg.SlotsPerChassis = 1 + int(slRaw)%6
		cfg.GlobalLinksPerPair = 1 + int(glRaw)%6
		cfg.ActiveNodes = cfg.Capacity()
		tp, err := Build(cfg)
		if err != nil {
			return false
		}
		// endpoint ranges and per-router-per-class tile uniqueness for
		// rank-1/rank-2 (rank-3 tiles may legitimately be shared when a
		// router hosts more global endpoints than its tile budget).
		seen := map[[2]int]bool{}
		for _, l := range tp.Links {
			if int(l.Src) >= tp.NumRouters() || int(l.Dst) >= tp.NumRouters() || l.Src == l.Dst {
				return false
			}
			if l.Class == Rank3 {
				continue
			}
			k := [2]int{int(l.Src), l.Tile}
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
