// Package network simulates the Aries fabric at packet granularity: NIC
// injection/ejection servers and router-to-router links modeled as FIFO
// transmission servers with finite, virtual-channel-indexed input buffers.
// A full downstream buffer blocks the upstream server (backpressure), which
// is what lets congestion percolate backwards from hot rank-3 links — the
// effect at the center of the paper's HACC analysis. Every traversal and
// every blocked interval is recorded in Aries-style tile counters.
package network

import (
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Packet is one routed network packet (a chunk of a Message, or a
// response). Packets are routed independently and adaptively, as on Aries.
//
// Packets are pooled: every Packet is a slot of its Fabric's slab and is
// recycled at delivery (see pool.go). Model code must not retain a *Packet
// across events — after deliver returns, the pointer may be reused for an
// unrelated packet. idx is the packet's stable slab slot, which doubles
// as its identity in typed kernel events (a scalar payload instead of a
// boxed pointer).
//
// Which events carry the identity differs by path: the split model's
// evFinishTx recovers its packet from the sender (release pops the head
// of lastVC, frozen while the server is busy), but the fused evHopDone
// cannot — by the time it fires the sender may have settled,
// re-arbitrated, and be serializing a different packet — so it carries
// idx in its payload, the same way evArrive always has.
//
// qnext threads the per-VC queues through the slab (see pktQueue): a
// packet sits in at most one queue at a time, so one link suffices.
//
// The route is stored inline (route[:nroute]) rather than in a separately
// allocated slice, so the per-hop next-server lookup (nextHop) reads one
// object, and the fields it needs — dst, hop, nroute and the first eight
// route links (a Valiant route's maximum) — share the packet's first cache
// line. A Packet is exactly 128 bytes and slab chunks are line-aligned, so
// every slot starts on a cache line; TestHotLayout pins the size, the
// offsets and the alignment.
type Packet struct {
	idx      int32 //simlint:resetsafe slab-slot identity, fixed for the life of the Fabric
	qnext    int32 // slab slot of the next packet in its VC queue; meaningful only while one is queued behind it
	src, dst topology.NodeID
	hop      int   // -1 at the injection server, h on route link h (see nextHop)
	nroute   uint8 // links in route
	routed   bool  // route assigned (happens lazily at injection head)
	response bool  // response-VC packet (ack); does not trigger a response
	nonMin   bool  // took a Valiant route
	// mode is the routing mode: Send sets it, and the response copies it.
	mode     routing.Mode
	route    [routing.MaxPathLinks]topology.LinkID //simlint:resetsafe dead past nroute, which reset zeroes; routePacket overwrites it
	bytes    int
	flits    int
	sendTime sim.Time
	routedAt sim.Time // when the route was chosen (injection head)
	msg      *Message // nil for responses

	_ [8]byte // pad to 128 bytes: keeps every slab slot line-aligned
}

// Message is one application-level transfer, fragmented into packets at
// the source NIC. The Done signal fires when the final packet is delivered
// to the destination node.
type Message struct {
	Src, Dst topology.NodeID
	Bytes    int

	Done        *sim.Signal
	DeliveredAt sim.Time
	// OnDelivered, when non-nil, runs in kernel context immediately
	// before Done fires. Upper layers (MPI matching) hook it to react to
	// deliveries without needing a live proc.
	OnDelivered func(*Message)

	remaining int      // undelivered packets
	minimal   int      // packets that took a minimal route
	nonMin    int      // packets that took a non-minimal route
	localNext *Message // successor in the fabric's same-node FIFO

	// TransitSum accumulates per-packet network transit (routing
	// decision to delivery) across the message's packets.
	TransitSum sim.Time
}

// RouteCounts reports how many of the message's packets took minimal and
// non-minimal routes (diagnostic, used by routing-behaviour tests).
func (m *Message) RouteCounts() (minimal, nonMinimal int) {
	return m.minimal, m.nonMin
}
