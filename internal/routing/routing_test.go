package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{AD0: "AD0", AD1: "AD1", AD2: "AD2", AD3: "AD3"} {
		if m.String() != want {
			t.Errorf("%v.String() = %q", uint8(m), m.String())
		}
	}
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Mode
	}{
		{"AD0", AD0}, {"AD1", AD1}, {"AD2", AD2}, {"AD3", AD3},
		{"ADAPTIVE_3", AD3}, {"2", AD2},
	} {
		got, err := ParseMode(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseMode("AD9"); err == nil {
		t.Error("ParseMode(AD9) should fail")
	}
}

func TestBiasValues(t *testing.T) {
	cases := []struct {
		m          Mode
		hops       int
		shift, add uint
	}{
		{AD0, 0, 0, 0}, {AD1, 0, 1, 0}, {AD2, 0, 0, 4}, {AD3, 0, 2, 0},
		// Only AD1 grows with hops taken, up to a shift of 4.
		{AD0, 5, 0, 0}, {AD1, 1, 2, 0}, {AD1, 3, 4, 0}, {AD1, 9, 4, 0},
		{AD2, 5, 0, 4}, {AD3, 5, 2, 0},
	}
	for _, c := range cases {
		s, a := c.m.Bias(c.hops)
		if s != c.shift || a != c.add {
			t.Errorf("%v.Bias(%d) = (%d,%d), want (%d,%d)", c.m, c.hops, s, a, c.shift, c.add)
		}
	}
}

func TestPrefersMinimalRule(t *testing.T) {
	// AD0: equal comparison.
	if !AD0.PrefersMinimal(5, 5, 0) || AD0.PrefersMinimal(6, 5, 0) {
		t.Error("AD0 rule broken")
	}
	// AD3: minimal load must exceed 4x non-minimal before going non-minimal
	// (the paper's statement verbatim).
	if !AD3.PrefersMinimal(20, 5, 0) || AD3.PrefersMinimal(21, 5, 0) {
		t.Error("AD3 4x rule broken")
	}
	// AD2: +4 additive bias.
	if !AD2.PrefersMinimal(9, 5, 0) || AD2.PrefersMinimal(10, 5, 0) {
		t.Error("AD2 +4 rule broken")
	}
	// AD1 at injection: 2x rule.
	if !AD1.PrefersMinimal(10, 5, 0) || AD1.PrefersMinimal(11, 5, 0) {
		t.Error("AD1 2x rule broken")
	}
}

// Monotonicity property: if a mode with stronger minimal bias goes
// non-minimal, every weaker mode must too.
func TestBiasMonotonicityProperty(t *testing.T) {
	order := []Mode{AD0, AD2, AD1, AD3} // increasing strength at small loads? verify numerically instead
	_ = order
	f := func(minLoad, nonMinLoad uint8) bool {
		m, n := int(minLoad), int(nonMinLoad)
		// AD3 (4x) is at least as minimal-preferring as AD1 (2x), which is
		// at least as minimal-preferring as AD0 (1x).
		if AD0.PrefersMinimal(m, n, 0) && !AD1.PrefersMinimal(m, n, 0) {
			return false
		}
		if AD1.PrefersMinimal(m, n, 0) && !AD3.PrefersMinimal(m, n, 0) {
			return false
		}
		if AD0.PrefersMinimal(m, n, 0) && !AD2.PrefersMinimal(m, n, 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func buildEngine(t testing.TB, groups int, est LoadEstimator) *Engine {
	t.Helper()
	topo, err := topology.Build(topology.TestConfig(groups))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return NewEngine(topo, est, DefaultConfig())
}

// route makes one routing decision into a fresh slice.
func route(e *Engine, mode Mode, rng *rand.Rand, src, dst topology.RouterID, hopsTaken int) ([]topology.LinkID, bool) {
	return e.RouteInto(nil, mode, rng, src, dst, hopsTaken)
}

// validatePath checks link-level connectivity from src to dst and the
// length bounds: at most MaxPathLinks links, and for a minimal path at
// most 2 hops within a group or 5 across groups (<=2 to the gateway, one
// rank-3 crossing, <=2 to the destination).
func validatePath(t testing.TB, topo *topology.Topology, src, dst topology.RouterID, links []topology.LinkID, nonMin bool) {
	t.Helper()
	cur := src
	for i, id := range links {
		if id < 0 || int(id) >= len(topo.Links) {
			t.Fatalf("hop %d: link id %d out of range", i, id)
		}
		l := topo.Link(id)
		if l.Src != cur {
			t.Fatalf("hop %d: link starts at %d, expected %d (path %v)", i, l.Src, cur, links)
		}
		cur = l.Dst
	}
	if cur != dst {
		t.Fatalf("path ends at %d, want %d", cur, dst)
	}
	if len(links) > MaxPathLinks {
		t.Fatalf("path %d->%d has %d links (> MaxPathLinks %d): %v", src, dst, len(links), MaxPathLinks, links)
	}
	limit := 5
	if topo.GroupOfRouter(src) == topo.GroupOfRouter(dst) {
		limit = 2
	}
	if !nonMin && len(links) > limit {
		t.Fatalf("minimal %d->%d took %d hops (limit %d): %v", src, dst, len(links), limit, links)
	}
}

func TestRouteSameRouter(t *testing.T) {
	e := buildEngine(t, 3, nil)
	links, _ := route(e, AD0, rand.New(rand.NewSource(1)), 5, 5, 0)
	if len(links) != 0 {
		t.Fatalf("self route has %d hops", len(links))
	}
}

func TestMinimalPathLengths(t *testing.T) {
	e := buildEngine(t, 4, nil)
	topo := e.Topology()
	rng := rand.New(rand.NewSource(7))
	for src := 0; src < topo.NumRouters(); src += 3 {
		for dst := 0; dst < topo.NumRouters(); dst += 5 {
			// Under zero load every choice is minimal, so validatePath
			// holds it to the minimal hop limits.
			links, nonMin := route(e, AD3, rng, topology.RouterID(src), topology.RouterID(dst), 0)
			validatePath(t, topo, topology.RouterID(src), topology.RouterID(dst), links, false)
			if nonMin {
				t.Fatalf("zero-load route %d->%d marked non-minimal", src, dst)
			}
		}
	}
}

// loadedEstimator reports a fixed load for a set of links.
type loadedEstimator map[topology.LinkID]int

func (m loadedEstimator) Load(id topology.LinkID) int { return m[id] }

// loadMinimalFirstHops puts `load` on every link the minimal routes from
// src toward dstGroup can take as their FIRST hop — the only state the
// UGAL-L estimator at src can see. In TestConfig(4), router 4 (chassis 1
// slot 0 of group 0) hosts a gateway to group 1 itself, and the other
// gateways (routers 5-7) are its rank-1 peers; its rank-2 links toward
// chassis 0 stay idle, leaving clean Valiant first hops via groups whose
// gateways sit in chassis 0.
func loadMinimalFirstHops(t *testing.T, topo *topology.Topology, est loadedEstimator, load int) (src, dst topology.RouterID) {
	t.Helper()
	gws := topo.GlobalLinks(0, 1)
	if len(gws) == 0 {
		t.Fatal("no gateways between groups 0 and 1")
	}
	// Source at the first gateway router, so at least one minimal first
	// hop is the rank-3 link itself.
	src = topo.Link(gws[0]).Src
	dst = topology.RouterID(topo.Cfg.RoutersPerGroup()) // first router of group 1
	srcR := topo.Routers[src]
	cfg := topo.Cfg
	groupBase := int(srcR.Group) * cfg.RoutersPerGroup()
	for _, gw := range gws {
		l := topo.Link(gw)
		if l.Src == src {
			est[gw] = load // local rank-3 gateway
			continue
		}
		// Load every first hop the engine's intraGroup could take from
		// src toward this gateway router.
		gwR := topo.Routers[l.Src]
		switch {
		case gwR.Chassis == srcR.Chassis:
			est[topo.R1Link(src, l.Src)] = load
		case gwR.Slot == srcR.Slot:
			for _, r2 := range topo.R2Links(src, l.Src) {
				est[r2] = load
			}
		default:
			viaRow := topology.RouterID(groupBase + srcR.Chassis*cfg.SlotsPerChassis + gwR.Slot)
			est[topo.R1Link(src, viaRow)] = load
			viaCol := topology.RouterID(groupBase + gwR.Chassis*cfg.SlotsPerChassis + srcR.Slot)
			for _, r2 := range topo.R2Links(src, viaCol) {
				est[r2] = load
			}
		}
	}
	return src, dst
}

func TestAdaptiveAvoidsLoadedGateway(t *testing.T) {
	topo, err := topology.Build(topology.TestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	est := loadedEstimator{}
	src, dst := loadMinimalFirstHops(t, topo, est, 1000)
	cfg := DefaultConfig()
	cfg.MinimalCandidates = 4
	cfg.NonMinimalCandidates = 6
	e := NewEngine(topo, est, cfg)
	rng := rand.New(rand.NewSource(3))
	// AD0 should detour: every minimal first hop is saturated.
	nonMin := 0
	for i := 0; i < 50; i++ {
		links, isNonMin := route(e, AD0, rng, src, dst, 0)
		validatePath(t, topo, src, dst, links, isNonMin)
		if isNonMin {
			nonMin++
			// The detour's first hop must avoid the saturated ports.
			if est[links[0]] >= 1000 {
				t.Fatal("non-minimal path starts on a saturated port")
			}
		}
	}
	if nonMin < 40 {
		t.Fatalf("AD0 detoured only %d/50 times under saturated minimal first hops", nonMin)
	}
}

func TestAD3SticksToMinimalUnderModerateLoad(t *testing.T) {
	topo, err := topology.Build(topology.TestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// Moderate load on the minimal first hops: enough that AD0 sometimes
	// detours but AD3 (4x rule) never should, given Valiant paths here
	// cost at least 3 hop-units.
	est := loadedEstimator{}
	src, dst := loadMinimalFirstHops(t, topo, est, 8)
	cfg := DefaultConfig()
	cfg.MinimalCandidates = 2
	cfg.NonMinimalCandidates = 2
	e := NewEngine(topo, est, cfg)
	rng := rand.New(rand.NewSource(11))
	ad0NonMin, ad3NonMin := 0, 0
	for i := 0; i < 100; i++ {
		if _, nonMin := route(e, AD0, rng, src, dst, 0); nonMin {
			ad0NonMin++
		}
		if _, nonMin := route(e, AD3, rng, src, dst, 0); nonMin {
			ad3NonMin++
		}
	}
	if ad0NonMin == 0 {
		t.Error("AD0 never detoured under 12-flit gateway load")
	}
	if ad3NonMin != 0 {
		t.Errorf("AD3 detoured %d/100 times under moderate load", ad3NonMin)
	}
}

func TestIntraGroupRouting(t *testing.T) {
	e := buildEngine(t, 3, nil)
	topo := e.Topology()
	rng := rand.New(rand.NewSource(5))
	rpg := topo.Cfg.RoutersPerGroup()
	for a := 0; a < rpg; a++ {
		for b := 0; b < rpg; b++ {
			if a == b {
				continue
			}
			links, nonMin := route(e, AD3, rng, topology.RouterID(a), topology.RouterID(b), 0)
			validatePath(t, topo, topology.RouterID(a), topology.RouterID(b), links, nonMin)
			ra, rb := topo.Routers[a], topo.Routers[b]
			wantHops := 2
			if ra.Chassis == rb.Chassis || ra.Slot == rb.Slot {
				wantHops = 1
			}
			if len(links) != wantHops {
				t.Fatalf("intra-group %d->%d: %d hops, want %d", a, b, len(links), wantHops)
			}
		}
	}
}

func TestIntraGroupValiant(t *testing.T) {
	topo, err := topology.Build(topology.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// Saturate both direct paths between two same-chassis routers: their
	// rank-1 link. The detour should go via an intermediate router.
	est := loadedEstimator{}
	a, b := topology.RouterID(0), topology.RouterID(1)
	est[topo.R1Link(a, b)] = 1000
	cfg := DefaultConfig()
	cfg.NonMinimalCandidates = 6
	e := NewEngine(topo, est, cfg)
	rng := rand.New(rand.NewSource(9))
	sawDetour := false
	for i := 0; i < 60; i++ {
		links, nonMin := route(e, AD0, rng, a, b, 0)
		validatePath(t, topo, a, b, links, nonMin)
		if nonMin {
			sawDetour = true
			if len(links) < 2 {
				t.Fatalf("intra-group detour with %d hops", len(links))
			}
		}
	}
	if !sawDetour {
		t.Error("AD0 never took the intra-group Valiant detour around a saturated rank-1 link")
	}
}

// Property: on random topologies, every routed path (any mode, any load) is
// valid and bounded: <=4 hops intra-group Valiant, <=10 hops inter-group.
func TestRoutePropertyValidBounded(t *testing.T) {
	f := func(seed int64, groupsRaw, mRaw uint8) bool {
		groups := 2 + int(groupsRaw)%4
		mode := Mode(mRaw % uint8(NumModes))
		topo, err := topology.Build(topology.TestConfig(groups))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		// random loads
		est := loadedEstimator{}
		for i := range topo.Links {
			est[topology.LinkID(i)] = rng.Intn(40)
		}
		e := NewEngine(topo, est, DefaultConfig())
		for trial := 0; trial < 20; trial++ {
			src := topology.RouterID(rng.Intn(topo.NumRouters()))
			dst := topology.RouterID(rng.Intn(topo.NumRouters()))
			links, _ := route(e, mode, rng, src, dst, 0)
			cur := src
			for _, id := range links {
				l := topo.Link(id)
				if l.Src != cur {
					return false
				}
				cur = l.Dst
			}
			if cur != dst {
				return false
			}
			if len(links) > 10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRouteWithinMaxPathLinks pins the invariant the fabric's virtual
// channels rest on: on the scaled production machines, every mode's path
// fits MaxPathLinks links (the VC count), whatever the load. Minimal paths
// also stay within their hop limits.
func TestRouteWithinMaxPathLinks(t *testing.T) {
	modes := []Mode{AD0, AD1, AD2, AD3, MinimalOnly, ValiantOnly}
	for _, cfg := range []topology.Config{topology.ThetaMiniConfig(), topology.CoriMiniConfig()} {
		t.Run(cfg.Name, func(t *testing.T) {
			topo, err := topology.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			est := loadedEstimator{}
			for i := range topo.Links {
				est[topology.LinkID(i)] = rng.Intn(40)
			}
			e := NewEngine(topo, est, DefaultConfig())
			nr := topo.NumRouters()
			for _, mode := range modes {
				for i := 0; i < 500; i++ {
					src := topology.RouterID(rng.Intn(nr))
					dst := topology.RouterID(rng.Intn(nr))
					links, nonMin := route(e, mode, rng, src, dst, 0)
					validatePath(t, topo, src, dst, links, nonMin)
				}
			}
		})
	}
}

func TestAD1BiasGrowsWithHops(t *testing.T) {
	topo, err := topology.Build(topology.TestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	est := loadedEstimator{}
	src, dst := loadMinimalFirstHops(t, topo, est, 30)
	e := NewEngine(topo, est, DefaultConfig())
	rng := rand.New(rand.NewSource(17))
	// With many hops already taken the effective bias is strong: expect
	// fewer detours than at injection.
	detours := func(hops int) int {
		n := 0
		for i := 0; i < 100; i++ {
			if _, nonMin := route(e, AD1, rng, src, dst, hops); nonMin {
				n++
			}
		}
		return n
	}
	early, late := detours(0), detours(4)
	if late > early {
		t.Errorf("AD1: detours grew with hops (%d -> %d)", early, late)
	}
}

func TestSampleGatewaysDistinct(t *testing.T) {
	topo, err := topology.Build(topology.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(topo, nil, DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(4)
		got := e.sampleGateways(rng, 0, 1, k)
		if len(got) > k {
			t.Fatalf("sampled %d > k=%d", len(got), k)
		}
		seen := map[topology.LinkID]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("duplicate gateway %d in sample", id)
			}
			seen[id] = true
			l := topo.Link(id)
			if topo.GroupOfRouter(l.Src) != 0 || topo.GroupOfRouter(l.Dst) != 1 {
				t.Fatalf("gateway %d connects wrong groups", id)
			}
		}
	}
}

// countingEstimator counts load queries and reports every link idle.
type countingEstimator struct{ calls int }

func (c *countingEstimator) Load(topology.LinkID) int { c.calls++; return 0 }

// TestRouteLoadQueryBudget is the deterministic regression gate on
// routing-decision cost. Wall-clock gates are meaningless on shared CI
// hosts (BENCH_3.json's recorded adaptive_route_ns_op jump 748->963
// turned out to be exactly that: re-measuring the same commits gives
// overlapping ~700-900ns bands — see BENCH_7.json), but the decision's
// dominant cost IS deterministic: the number of load-estimator queries
// per decision (~78 on Theta-mini, each a Fabric.Load with its windowed
// occupancy math and jitter draw). Any restructuring that inflates
// candidate enumeration shows up here exactly, on any host.
func TestRouteLoadQueryBudget(t *testing.T) {
	topo, err := topology.Build(topology.ThetaMiniConfig())
	if err != nil {
		t.Fatal(err)
	}
	est := &countingEstimator{}
	eng := NewEngine(topo, est, DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	nr := topo.NumRouters()
	const decisions = 20000
	buf := make([]topology.LinkID, 0, 16)
	for _, mode := range []Mode{AD0, AD1, AD2, AD3} {
		est.calls = 0
		for i := 0; i < decisions; i++ {
			src := topology.RouterID(rng.Intn(nr))
			dst := topology.RouterID(rng.Intn(nr))
			buf, _ = eng.RouteInto(buf[:0], mode, rng, src, dst, 0)
		}
		if perDecision := float64(est.calls) / decisions; perDecision > 80 {
			t.Errorf("%s: %.2f load queries/decision, budget 80", mode, perDecision)
		}
	}
}
