package routing

import (
	"math/rand"

	"repro/internal/topology"
)

// LoadEstimator exposes live congestion state to the adaptive choice. The
// network fabric implements it with per-link queue occupancy in flits.
type LoadEstimator interface {
	// Load returns the current occupancy (queued flits) of a link.
	Load(id topology.LinkID) int
}

// zeroLoad estimates every link as idle; used when no estimator is given.
type zeroLoad struct{}

func (zeroLoad) Load(topology.LinkID) int { return 0 }

// Config tunes the adaptive engine.
type Config struct {
	// MinimalCandidates is how many distinct minimal paths (rank-3
	// gateway choices) are scored per decision.
	MinimalCandidates int
	// NonMinimalCandidates is how many Valiant paths (intermediate group
	// or intra-group intermediate router choices) are scored.
	NonMinimalCandidates int
}

// DefaultConfig matches the values used throughout the reproduction.
func DefaultConfig() Config {
	return Config{MinimalCandidates: 2, NonMinimalCandidates: 2}
}

// Engine constructs adaptive routes over one topology.
//
// An Engine is not safe for concurrent use: candidate paths are built in
// per-engine scratch buffers (one pair per candidate class, double-buffered
// so the running best survives while the next candidate is scored), and
// only the winning path is copied out. The buffers are preallocated at the
// maximum path length, so a routing decision allocates nothing.
type Engine struct {
	topo *topology.Topology
	est  LoadEstimator
	cfg  Config

	// Scratch state (see DESIGN.md, "Hot-path memory discipline").
	gwBuf   []topology.LinkID    // sampleGateways output
	minBufs [2][]topology.LinkID // bestMinimal candidate / incumbent
	nonBufs [2][]topology.LinkID // bestNonMinimal candidate / incumbent
}

// MaxPathLinks bounds any candidate path: an inter-group Valiant route is
// at most 2 + 1 + 2 + 1 + 2 = 8 links; 12 leaves slack.
const MaxPathLinks = 12

// NewEngine builds an engine. est may be nil (all links idle).
func NewEngine(topo *topology.Topology, est LoadEstimator, cfg Config) *Engine {
	if est == nil {
		est = zeroLoad{}
	}
	if cfg.MinimalCandidates < 1 {
		cfg.MinimalCandidates = 1
	}
	if cfg.NonMinimalCandidates < 1 {
		cfg.NonMinimalCandidates = 1
	}
	e := &Engine{topo: topo, est: est, cfg: cfg}
	e.gwBuf = make([]topology.LinkID, 0, 8)
	for i := range e.minBufs {
		e.minBufs[i] = make([]topology.LinkID, 0, MaxPathLinks)
		e.nonBufs[i] = make([]topology.LinkID, 0, MaxPathLinks)
	}
	return e
}

// Topology returns the engine's topology.
func (e *Engine) Topology() *topology.Topology { return e.topo }

// pathLoad scores a path as the queue occupancy of its first link — the
// only congestion state the source router can actually observe (as on
// Aries, whose adaptive choice compares candidate output-port loads).
// Two properties of this estimate drive everything the paper measures:
//
//   - It is local: remote congestion reaches it only indirectly and late,
//     via backpressure filling the local output queue.
//   - It carries no hop-count weighting: under AD0 ("equal bias") a
//     non-minimal port that looks even slightly less loaded wins, even
//     though the Valiant path pays double the hops through an equally
//     congested middle. That is precisely why the paper finds the AD0
//     default sub-optimal on busy systems, and why it is ideal only when
//     network load is low (Section II-D: detours are free on an idle
//     network and exploit path diversity).
//
// Each hop also contributes one base unit — the credit round-trip floor of
// an idle channel. It is deliberately small against the load units (one
// unit is 256B of queued traffic), so under real congestion the raw load
// comparison dominates, but on an idle network it breaks ties toward
// minimal and gives the AD3 shift a meaningful threshold: with an idle
// 6-hop Valiant alternative, a minimal path must queue ~24 units (~6KB)
// before AD3 lets go of it.
//
//simlint:hotpath
func (e *Engine) pathLoad(links []topology.LinkID) int {
	if len(links) == 0 {
		return 0
	}
	return len(links) + e.est.Load(links[0])
}

// leastLoaded returns the link in ls with the smallest load, breaking ties
// by earliest index. ls must be non-empty.
//
//simlint:hotpath
func (e *Engine) leastLoaded(ls []topology.LinkID) topology.LinkID {
	best := ls[0]
	bestLoad := e.est.Load(best)
	for _, l := range ls[1:] {
		if v := e.est.Load(l); v < bestLoad {
			best, bestLoad = l, v
		}
	}
	return best
}

// intraGroup appends a minimal path between two routers of the same group
// to dst (<= 2 hops: rank-1, rank-2, or one of each in load-preferred
// order).
//
//simlint:hotpath
func (e *Engine) intraGroup(buf []topology.LinkID, a, b topology.RouterID) []topology.LinkID {
	if a == b {
		return buf
	}
	t := e.topo
	ra, rb := t.Routers[a], t.Routers[b]
	if ra.Chassis == rb.Chassis {
		return append(buf, t.R1Link(a, b))
	}
	if ra.Slot == rb.Slot {
		return append(buf, e.leastLoaded(t.R2Links(a, b)))
	}
	// Two hops; the intermediate router is either (a.chassis, b.slot)
	// reached by rank-1 first, or (b.chassis, a.slot) reached by rank-2
	// first. Pick the alternative whose first link is less loaded.
	groupBase := int(ra.Group) * t.Cfg.RoutersPerGroup()
	viaRow := topology.RouterID(groupBase + ra.Chassis*t.Cfg.SlotsPerChassis + rb.Slot)
	viaCol := topology.RouterID(groupBase + rb.Chassis*t.Cfg.SlotsPerChassis + ra.Slot)
	r1First := t.R1Link(a, viaRow)
	r2First := e.leastLoaded(t.R2Links(a, viaCol))
	if e.est.Load(r1First) <= e.est.Load(r2First) {
		buf = append(buf, r1First)
		return append(buf, e.leastLoaded(t.R2Links(viaRow, b)))
	}
	buf = append(buf, r2First)
	return append(buf, t.R1Link(viaCol, b))
}

// minimalInterGroup appends one minimal path from src to dst (different
// groups) through the given rank-3 gateway link to buf.
//
//simlint:hotpath
func (e *Engine) minimalInterGroup(buf []topology.LinkID, src, dst topology.RouterID, gw topology.LinkID) []topology.LinkID {
	g := e.topo.Link(gw)
	buf = e.intraGroup(buf, src, g.Src)
	buf = append(buf, gw)
	return e.intraGroup(buf, g.Dst, dst)
}

// sampleGateways picks up to k distinct rank-3 links from group a to group
// b, uniformly without replacement. k is tiny (<= 4), so rejection
// sampling over indices beats any allocation-heavy scheme. The result is
// backed by engine scratch (or the topology's own link table when it has
// at most k entries): it is valid only until the next sampleGateways call
// and must not be mutated.
//
//simlint:hotpath
func (e *Engine) sampleGateways(rng *rand.Rand, a, b topology.GroupID, k int) []topology.LinkID {
	all := e.topo.GlobalLinks(a, b)
	if len(all) <= k {
		return all
	}
	var idx [8]int
	if k > len(idx) {
		k = len(idx)
	}
	count := 0
	for count < k {
		j := rng.Intn(len(all))
		dup := false
		for _, v := range idx[:count] {
			if v == j {
				dup = true
				break
			}
		}
		if !dup {
			idx[count] = j
			count++
		}
	}
	out := e.gwBuf[:0]
	for _, v := range idx[:count] {
		out = append(out, all[v])
	}
	e.gwBuf = out
	return out
}

// bestMinimal returns the least-loaded minimal path among k sampled
// gateway choices (or the <=2-hop intra-group path when src and dst share
// a group). The result is scratch-backed: valid until the next bestMinimal
// call on this engine.
//
//simlint:hotpath
func (e *Engine) bestMinimal(rng *rand.Rand, src, dst topology.RouterID) []topology.LinkID {
	t := e.topo
	ga, gb := t.GroupOfRouter(src), t.GroupOfRouter(dst)
	if ga == gb {
		e.minBufs[0] = e.intraGroup(e.minBufs[0][:0], src, dst)
		return e.minBufs[0]
	}
	var best []topology.LinkID
	bestLoad := 0
	cur := 0
	for _, gw := range e.sampleGateways(rng, ga, gb, e.cfg.MinimalCandidates) {
		p := e.minimalInterGroup(e.minBufs[cur][:0], src, dst, gw)
		e.minBufs[cur] = p
		l := e.pathLoad(p)
		if best == nil || l < bestLoad {
			// The candidate becomes the incumbent; build the next one in
			// the other buffer so the incumbent survives.
			best, bestLoad = p, l
			cur = 1 - cur
		}
	}
	return best
}

// bestNonMinimal returns the least-loaded Valiant path: via a random
// intermediate group (inter-group traffic) or a random intermediate router
// (intra-group traffic). The result is scratch-backed: valid until the
// next bestNonMinimal call on this engine.
//
//simlint:hotpath
func (e *Engine) bestNonMinimal(rng *rand.Rand, src, dst topology.RouterID) []topology.LinkID {
	t := e.topo
	ga, gb := t.GroupOfRouter(src), t.GroupOfRouter(dst)
	var best []topology.LinkID
	bestLoad := 0
	cur := 0
	// consider scores the candidate just built in nonBufs[cur] and, if it
	// beats the incumbent, claims its buffer (same double-buffer scheme
	// as bestMinimal).
	consider := func(p []topology.LinkID) {
		e.nonBufs[cur] = p
		l := e.pathLoad(p)
		if best == nil || l < bestLoad {
			best, bestLoad = p, l
			cur = 1 - cur
		}
	}
	if ga == gb {
		// Intra-group Valiant: detour through a random intermediate
		// router of the same group.
		rpg := t.Cfg.RoutersPerGroup()
		if rpg <= 2 {
			return nil // no intermediate router exists
		}
		for i := 0; i < e.cfg.NonMinimalCandidates; i++ {
			mid := topology.RouterID(int(ga)*rpg + rng.Intn(rpg))
			if mid == src || mid == dst {
				continue
			}
			buf := e.intraGroup(e.nonBufs[cur][:0], src, mid)
			consider(e.intraGroup(buf, mid, dst))
		}
		return best
	}
	// Inter-group Valiant: detour through a random third group.
	ng := t.Cfg.Groups
	if ng <= 2 {
		return nil
	}
	for i := 0; i < e.cfg.NonMinimalCandidates; i++ {
		mid := topology.GroupID(rng.Intn(ng))
		if mid == ga || mid == gb {
			continue
		}
		// Both gateway samples share the engine's scratch, so lift the
		// first one's link id out before the second sample overwrites it.
		// The draw order (gw1 sampled, then gw2, then the emptiness
		// check) is part of the frozen RNG sequence.
		gw1 := e.sampleGateways(rng, ga, mid, 1)
		var id1 topology.LinkID
		ok1 := len(gw1) > 0
		if ok1 {
			id1 = gw1[0]
		}
		gw2 := e.sampleGateways(rng, mid, gb, 1)
		if !ok1 || len(gw2) == 0 {
			continue
		}
		id2 := gw2[0]
		l1, l2 := t.Link(id1), t.Link(id2)
		buf := e.intraGroup(e.nonBufs[cur][:0], src, l1.Src)
		buf = append(buf, id1)
		buf = e.intraGroup(buf, l1.Dst, l2.Src)
		buf = append(buf, id2)
		consider(e.intraGroup(buf, l2.Dst, dst))
	}
	return best
}

// route makes one adaptive routing decision for a packet that has already
// taken hopsTaken hops; every mode goes through the one bias rule,
// Mode.PrefersMinimal. The returned slice aliases engine scratch: valid
// until the next routing call, never to be retained.
// The sequence of RNG draws this function makes (candidate sampling and
// every LoadEstimator query, in order) is a frozen interface: golden
// artifacts depend on it byte-for-byte, so restructuring must not add,
// drop, or reorder a single draw (see DESIGN.md).
//
//simlint:hotpath
func (e *Engine) route(mode Mode, rng *rand.Rand, src, dst topology.RouterID, hopsTaken int) ([]topology.LinkID, bool) {
	if src == dst {
		return nil, false
	}
	min := e.bestMinimal(rng, src, dst)
	if mode == MinimalOnly {
		return min, false
	}
	nonMin := e.bestNonMinimal(rng, src, dst)
	if nonMin == nil {
		return min, false
	}
	if mode == ValiantOnly {
		return nonMin, true
	}
	minLoad, nonMinLoad := e.pathLoad(min), e.pathLoad(nonMin)
	if mode.PrefersMinimal(minLoad, nonMinLoad, hopsTaken) {
		return min, false
	}
	return nonMin, true
}

// RouteInto makes one adaptive routing decision for a packet from src to
// dst under the given mode, appending the winning path (the directed links
// from src to dst, none when src == dst) to dst0 (typically an empty slice
// over a packet's inline MaxPathLinks array) and reporting whether it is
// non-minimal. It allocates nothing: losing candidates live and die in
// engine scratch. hopsTaken is the number of hops the packet has already
// taken; only AD1's bias reads it.
//
//simlint:hotpath
func (e *Engine) RouteInto(dst0 []topology.LinkID, mode Mode, rng *rand.Rand, src, dst topology.RouterID, hopsTaken int) ([]topology.LinkID, bool) {
	links, nonMin := e.route(mode, rng, src, dst, hopsTaken)
	return append(dst0, links...), nonMin
}
