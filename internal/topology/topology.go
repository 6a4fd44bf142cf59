package topology

import (
	"fmt"

	"repro/internal/sim"
)

// Identifier types. All are dense indices starting at zero.
type (
	// RouterID identifies one Aries router (one blade).
	RouterID int32
	// NodeID identifies one compute node (4 per router on Aries).
	NodeID int32
	// LinkID identifies one directed router-to-router channel.
	LinkID int32
	// GroupID identifies one electrical group.
	GroupID int32
)

// LinkClass distinguishes the three dragonfly link ranks.
type LinkClass uint8

// Link ranks, in the paper's color coding: rank-1 green (intra-chassis
// row), rank-2 grey (intra-group column), rank-3 blue (optical global).
const (
	Rank1 LinkClass = iota
	Rank2
	Rank3
	numLinkClasses
)

func (c LinkClass) String() string {
	switch c {
	case Rank1:
		return "rank1"
	case Rank2:
		return "rank2"
	case Rank3:
		return "rank3"
	}
	return fmt.Sprintf("LinkClass(%d)", uint8(c))
}

// TileClass classifies a router tile for counter aggregation, matching the
// paper's Fig. 6 breakdown: the three network ranks plus processor-tile
// request and response traffic.
type TileClass uint8

// Tile classes.
const (
	TileRank1 TileClass = iota
	TileRank2
	TileRank3
	TileProcReq
	TileProcRsp
	NumTileClasses
)

func (c TileClass) String() string {
	switch c {
	case TileRank1:
		return "Rank1"
	case TileRank2:
		return "Rank2"
	case TileRank3:
		return "Rank3"
	case TileProcReq:
		return "Proc_req"
	case TileProcRsp:
		return "Proc_rsp"
	}
	return fmt.Sprintf("TileClass(%d)", uint8(c))
}

// Link is one directed router-to-router channel.
type Link struct {
	ID        LinkID
	Src, Dst  RouterID
	Class     LinkClass
	Tile      int     // tile index at Src occupied by this output port
	Bandwidth float64 // bytes/second, this direction
	Latency   sim.Time
}

// Router is one Aries router blade.
type Router struct {
	ID      RouterID
	Group   GroupID
	Chassis int // 0..ChassisPerGroup-1
	Slot    int // 0..SlotsPerChassis-1
}

// Topology is an immutable built dragonfly instance.
type Topology struct {
	Cfg     Config
	Routers []Router
	Links   []Link

	// tile layout (identical for every router)
	tilesPerRouter int
	r2TileBase     int // first rank-2 tile index
	r3TileBase     int // first rank-3 tile index
	procTileBase   int // first processor tile index

	// adjacency
	r1 [][]LinkID // [router][peerSlot] -> link (self slot = -1)
	r2 [][]LinkID // [router][peerChassisIdx*Rank2LinksPerPair+k]
	r3 [][]LinkID // [srcGroup*Groups+dstGroup] -> rank-3 links
}

// Build constructs the dragonfly described by cfg.
func Build(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{Cfg: cfg}
	nr := cfg.Routers()
	rpg := cfg.RoutersPerGroup()

	t.Routers = make([]Router, nr)
	for r := 0; r < nr; r++ {
		g := r / rpg
		in := r % rpg
		t.Routers[r] = Router{
			ID:      RouterID(r),
			Group:   GroupID(g),
			Chassis: in / cfg.SlotsPerChassis,
			Slot:    in % cfg.SlotsPerChassis,
		}
	}

	// Tile layout: [rank1 ports][rank2 ports][rank3 ports][proc tiles].
	nR1 := cfg.SlotsPerChassis - 1
	nR2 := (cfg.ChassisPerGroup - 1) * cfg.Rank2LinksPerPair
	nR3 := t.maxR3PortsPerRouter()
	nProc := 2 * cfg.NodesPerRouter // one request + one response tile per NIC
	t.r2TileBase = nR1
	t.r3TileBase = nR1 + nR2
	t.procTileBase = nR1 + nR2 + nR3
	t.tilesPerRouter = nR1 + nR2 + nR3 + nProc

	t.r1 = make([][]LinkID, nr)
	t.r2 = make([][]LinkID, nr)
	for r := range t.r1 {
		t.r1[r] = make([]LinkID, cfg.SlotsPerChassis)
		for i := range t.r1[r] {
			t.r1[r][i] = -1
		}
		t.r2[r] = make([]LinkID, (cfg.ChassisPerGroup-1)*cfg.Rank2LinksPerPair)
		for i := range t.r2[r] {
			t.r2[r][i] = -1
		}
	}
	t.r3 = make([][]LinkID, cfg.Groups*cfg.Groups)

	addLink := func(src, dst RouterID, class LinkClass, tile int, bw float64, lat sim.Time) LinkID {
		id := LinkID(len(t.Links))
		t.Links = append(t.Links, Link{
			ID: id, Src: src, Dst: dst, Class: class, Tile: tile,
			Bandwidth: bw, Latency: lat,
		})
		return id
	}

	// Rank-1: all-to-all within each chassis row.
	for r := 0; r < nr; r++ {
		ri := t.Routers[r]
		base := int(ri.ID) - ri.Slot // first router of this chassis
		for peer := 0; peer < cfg.SlotsPerChassis; peer++ {
			if peer == ri.Slot {
				continue
			}
			// tile index: peers in slot order, skipping self
			tile := peer
			if peer > ri.Slot {
				tile = peer - 1
			}
			id := addLink(ri.ID, RouterID(base+peer), Rank1, tile,
				cfg.Rank1Bandwidth, cfg.Rank1Latency)
			t.r1[r][peer] = id
		}
	}

	// Rank-2: parallel links between same-slot routers of different chassis
	// within a group.
	for r := 0; r < nr; r++ {
		ri := t.Routers[r]
		groupBase := int(ri.Group) * rpg
		pi := 0 // peer chassis index (skipping own chassis)
		for pc := 0; pc < cfg.ChassisPerGroup; pc++ {
			if pc == ri.Chassis {
				continue
			}
			peer := RouterID(groupBase + pc*cfg.SlotsPerChassis + ri.Slot)
			for k := 0; k < cfg.Rank2LinksPerPair; k++ {
				tile := t.r2TileBase + pi*cfg.Rank2LinksPerPair + k
				id := addLink(ri.ID, peer, Rank2, tile,
					cfg.Rank2Bandwidth, cfg.Rank2Latency)
				t.r2[r][pi*cfg.Rank2LinksPerPair+k] = id
			}
			pi++
		}
	}

	// Rank-3: GlobalLinksPerPair optical cables between every pair of
	// groups, endpoints spread deterministically over each group's routers.
	r3PortUsed := make([]int, nr) // next free rank-3 tile slot per router
	for a := 0; a < cfg.Groups; a++ {
		for b := a + 1; b < cfg.Groups; b++ {
			for l := 0; l < cfg.GlobalLinksPerPair; l++ {
				// Spread the parallel cables of one pair across the
				// whole group (stride rpg/L) rather than on adjacent
				// routers, as on the real machine: the funnel toward a
				// destination group then uses several chassis' worth
				// of intra-group links instead of one corner.
				stride := rpg / cfg.GlobalLinksPerPair
				if stride < 1 {
					stride = 1
				}
				ra := RouterID(a*rpg + (b+l*stride)%rpg)
				rb := RouterID(b*rpg + (a+l*stride)%rpg)
				ta := t.r3TileBase + r3PortUsed[ra]%nR3
				tb := t.r3TileBase + r3PortUsed[rb]%nR3
				r3PortUsed[ra]++
				r3PortUsed[rb]++
				ab := addLink(ra, rb, Rank3, ta, cfg.Rank3Bandwidth, cfg.Rank3Latency)
				ba := addLink(rb, ra, Rank3, tb, cfg.Rank3Bandwidth, cfg.Rank3Latency)
				t.r3[a*cfg.Groups+b] = append(t.r3[a*cfg.Groups+b], ab)
				t.r3[b*cfg.Groups+a] = append(t.r3[b*cfg.Groups+a], ba)
			}
		}
	}

	return t, nil
}

// maxR3PortsPerRouter computes the rank-3 tile budget: enough for the
// busiest router under the deterministic endpoint spreading.
func (t *Topology) maxR3PortsPerRouter() int {
	cfg := t.Cfg
	rpg := cfg.RoutersPerGroup()
	total := (cfg.Groups - 1) * cfg.GlobalLinksPerPair // endpoints per group
	per := (total + rpg - 1) / rpg
	if per < 1 {
		per = 1
	}
	// Allow slack: spreading is modular, not perfectly balanced.
	return per + 1
}

// NumRouters returns the router count.
func (t *Topology) NumRouters() int { return len(t.Routers) }

// NumNodes returns the active node count.
func (t *Topology) NumNodes() int { return t.Cfg.ActiveNodes }

// TilesPerRouter returns the per-router tile count (network + processor).
func (t *Topology) TilesPerRouter() int { return t.tilesPerRouter }

// TileClassOf classifies tile index `tile` (same layout on every router).
// Processor tiles alternate request, response per NIC.
func (t *Topology) TileClassOf(tile int) TileClass {
	switch {
	case tile < t.r2TileBase:
		return TileRank1
	case tile < t.r3TileBase:
		return TileRank2
	case tile < t.procTileBase:
		return TileRank3
	default:
		if (tile-t.procTileBase)%2 == 0 {
			return TileProcReq
		}
		return TileProcRsp
	}
}

// ProcReqTile returns the request tile index for the i-th NIC of a router.
func (t *Topology) ProcReqTile(i int) int { return t.procTileBase + 2*i }

// ProcRspTile returns the response tile index for the i-th NIC of a router.
func (t *Topology) ProcRspTile(i int) int { return t.procTileBase + 2*i + 1 }

// RouterOfNode maps a node to its router.
func (t *Topology) RouterOfNode(n NodeID) RouterID {
	return RouterID(int(n) / t.Cfg.NodesPerRouter)
}

// NICIndexOfNode returns which of the router's NICs serves node n.
func (t *Topology) NICIndexOfNode(n NodeID) int {
	return int(n) % t.Cfg.NodesPerRouter
}

// GroupOfRouter maps a router to its group.
func (t *Topology) GroupOfRouter(r RouterID) GroupID {
	return GroupID(int(r) / t.Cfg.RoutersPerGroup())
}

// GroupOfNode maps a node to its group.
func (t *Topology) GroupOfNode(n NodeID) GroupID {
	return t.GroupOfRouter(t.RouterOfNode(n))
}

// R1Link returns the rank-1 link from a to b (same group, same chassis) or
// -1 if they are not rank-1 peers.
func (t *Topology) R1Link(a, b RouterID) LinkID {
	ra, rb := t.Routers[a], t.Routers[b]
	if ra.Group != rb.Group || ra.Chassis != rb.Chassis || a == b {
		return -1
	}
	return t.r1[a][rb.Slot]
}

// R2Links returns the parallel rank-2 links from a to b (same group, same
// slot, different chassis), or nil.
func (t *Topology) R2Links(a, b RouterID) []LinkID {
	ra, rb := t.Routers[a], t.Routers[b]
	if ra.Group != rb.Group || ra.Slot != rb.Slot || ra.Chassis == rb.Chassis {
		return nil
	}
	pi := rb.Chassis
	if rb.Chassis > ra.Chassis {
		pi--
	}
	k := t.Cfg.Rank2LinksPerPair
	return t.r2[a][pi*k : pi*k+k]
}

// GlobalLinks returns the rank-3 links from group a to group b.
func (t *Topology) GlobalLinks(a, b GroupID) []LinkID {
	if a == b {
		return nil
	}
	return t.r3[int(a)*t.Cfg.Groups+int(b)]
}

// Link returns the link record for id.
func (t *Topology) Link(id LinkID) *Link { return &t.Links[id] }
