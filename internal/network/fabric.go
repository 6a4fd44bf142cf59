package network

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The fabric's fixed packet format. Every run uses these values, so they
// are constants rather than Params.
const (
	// PacketBytes is the fragmentation unit (MTU). Messages are split
	// into packets of at most this size, each routed independently.
	PacketBytes = 4096
	// FlitBytes converts bytes to flits for the tile counters.
	FlitBytes = 16
	// responseBytes is the size of the response (ack) packet that every
	// delivered data packet sends back to its source, as on Aries.
	responseBytes = 64
	// localLatency is the delivery latency for same-node messages,
	// which bypass the network.
	localLatency = 600 * sim.Nanosecond
	// numVC is the virtual-channel count of every link: one VC per hop
	// index of the longest route a packet can carry. A Valiant route is
	// at most 8 links (routing.MaxPathLinks leaves slack), and
	// routeOverflow panics on any longer one.
	numVC = routing.MaxPathLinks
)

// Params tunes the packet-level fabric model. Each field is varied by an
// ablation, a calibration sweep or a reference-model test; DefaultParams
// holds the values every reproduction run uses.
type Params struct {
	// BufferFlits is the per-virtual-channel input buffer capacity of
	// every link and of the NIC ejection queue. Small buffers mean
	// backpressure forms quickly.
	BufferFlits int
	// LoadStaleness is how out-of-date the congestion estimates feeding
	// the adaptive routing are. Aries estimates port load from credit
	// round-trips, so the router acts on a picture that lags reality by
	// a few microseconds. Zero means oracle-fresh estimates (not
	// representative of hardware).
	LoadStaleness sim.Time
	// HopContention scales an extra per-hop delay proportional to the
	// arrival link's queued flits (flit periods per queued flit). It
	// stands in for everything a packet-granularity model leaves out of
	// a loaded router traversal — flit-level crossbar conflicts, the
	// row/column bus arbitration of the Aries tiled crossbar, and
	// head-of-line blocking inside a VC — all of which grow with load.
	// An idle router adds nothing, so low-load behaviour is unchanged;
	// under congestion it makes every EXTRA hop genuinely expensive,
	// which is the regime where the paper finds minimal bias winning.
	HopContention float64
	// LoadJitter is the relative error of the load estimate: each query
	// sees the true load scaled by a uniform factor in
	// [1-LoadJitter, 1+LoadJitter]. It models the coarse quantization
	// and delayed credits of the hardware congestion metric. This is
	// the mechanism behind the paper's central finding: with equal bias
	// (AD0) the router acts on these noisy comparisons and regularly
	// pays Valiant's extra hops for no real gain, while strong minimal
	// bias (AD3) only reacts to load differences far above the noise.
	// An idle link always reads zero, so all biases agree on an idle
	// network (Section II-D: non-minimal is harmless only at low load).
	LoadJitter float64
	// NoRecycle disables the packet free list: every packet is a fresh
	// allocation, as before pooling existed. Testing knob only — the
	// pool property tests run pooled and non-pooled fabrics side by side
	// and require identical observable behaviour.
	NoRecycle bool
	// FuseLinks collapses the two per-link-hop events (serialization
	// completion + propagation arrival) into one fused hop-done event
	// scheduled at serialization start, with the hop's contention delay
	// precomputed from the downstream backlog at that moment instead of
	// at serialization end. This is a physics coarsening, not a
	// scheduling trick: with HopContention == 0 the fused model is
	// observably equivalent to the split reference (the equivalence and
	// fuzz tests in fused_test.go pin it), while with contention enabled
	// the delay estimate is one serialization time staler. Fusion is the
	// default (DefaultParams sets it; goldens are recorded under it);
	// the split path remains available as the reference model for
	// equivalence tests and debugging, the same pattern NoRecycle uses.
	// Sender-side bookkeeping (flit counters, buffer release, waiter
	// wake) settles lazily — see (*Fabric).settle.
	FuseLinks bool
}

// DefaultParams returns the parameters used across the reproduction.
func DefaultParams() Params {
	return Params{
		BufferFlits:   768, // 3 packets per VC at the MTU
		LoadStaleness: 3 * sim.Microsecond,
		LoadJitter:    0.75,
		HopContention: 1.0,
		FuseLinks:     true, // ~25% fewer events/packet; split path = reference
	}
}

type serverKind uint8

const (
	kindLink serverKind = iota
	kindInject
	kindEject
)

// server is one transmission unit: a NIC injection queue, a NIC ejection
// queue, or one directed router link. It holds a queue per virtual
// channel and serializes one packet at a time, picking among VC heads
// round-robin. A VC head whose downstream buffer is full does not block
// other VCs — and because a packet's VC index is its hop count, the
// buffer-wait graph over (link, VC) pairs strictly increases and can
// never cycle: the fabric is deadlock-free by construction.
//
// Field order is a cache layout. Servers live in one slab (Fabric.servers)
// and are exactly 256 bytes, so each starts on a cache-line boundary, and
// the first line holds everything arbitration and a downstream space or
// backlog check read: kind, the busy/blocked/pending flags, idx, the VC
// mask, the round-robin pointer, occupancy, capacity and the timing
// constants. The third holds what a completion or a stall charge reads
// besides: the propagation latency, the stall start, the flat tile-counter
// index and the waiter list. TestHotLayout pins the size and the offsets.
type server struct {
	// First cache line: per-hop state.
	kind          serverKind //simlint:resetsafe immutable identity
	busy, blocked bool
	// Fused-hop state (Params.FuseLinks). While a fused transmission is
	// in flight the sender-side completion (flit count, dequeue, buffer
	// release, waiter wake) is deferred: pendingTx marks it owed, freeAt
	// is the serialization-end instant it is owed AT, and settleEvt
	// records that an evSettle is already scheduled for exactly freeAt
	// (needed only when backlog or waiters appear mid-flight). Every
	// reader of sender-side state settles first, so the deferral is
	// unobservable — see (*Fabric).settle. A link's Fabric.loads entry
	// mirrors freeAt in due while pendingTx holds.
	pendingTx bool
	idx       int32  //simlint:resetsafe position in Fabric.servers; typed-event payload
	nonEmpty  uint32 // bitmask of VCs with queued packets
	settleEvt bool
	lastVC    int // round-robin arbitration pointer
	occTotal  int // sum of occ (cached for O(1) load estimates)
	capFlits  int //simlint:resetsafe immutable config: per-VC capacity; 0 = unbounded (injection)
	freeAt    sim.Time
	flitTime  sim.Time //simlint:resetsafe immutable config: one flit period at bw
	bw        float64  //simlint:resetsafe immutable config: bytes/second

	queues []pktQueue // per VC; carved from a fabric-wide slab
	// occ is the buffered flits per VC, carved from a fabric-wide slab.
	// int32 holds any bounded buffer, and 2^31 flits (32 GiB at the
	// default 16-byte flit) of unsent data in an unbounded injection
	// queue; past that it wraps negative and bumpOcc panics.
	occ []int32
	// occInt integrates occupancy over time (flit-picoseconds) so the load
	// estimate exposed to routing is the MEAN occupancy over the last
	// staleness window (see Fabric.Load and linkLoad).
	occInt float64
	occAt  sim.Time

	lat     sim.Time //simlint:resetsafe immutable config: propagation after serialization
	stallAt sim.Time
	// ctr is the flat index into Counters.flits/stalls of the tile that
	// records traffic through s: a link's output tile on its source
	// router, or a NIC's processor request tile, whose response tile is
	// ctr+1 (see counter).
	ctr int32 //simlint:resetsafe immutable identity: fixed by the topology

	// Backpressure bookkeeping (see pool.go): waiters is the list of
	// upstream servers (by Fabric.servers index) blocked on space here;
	// waking is the snapshot a pending batched wake will flush; wakeGen
	// invalidates waitingOn registrations wholesale on each flush.
	waiters   []int32
	waking    []int32
	wakeGen   uint64
	waitingOn []waitReg // downstream servers we are registered with

	_ [24]byte // pad to 256 bytes: keeps every slab entry line-aligned
}

// linkLoad is one link's congestion-estimate state, kept apart from its
// server in the dense Fabric.loads array so a routing decision's dozens of
// Load queries each touch 32 bytes instead of a server's cache line.
//
// Credit-style estimation: the estimate exposed to routing is the mean
// occupancy over the last staleness window — a busy link never reads zero
// just because its queue momentarily drained, matching the
// credit-outstanding metric of the hardware. sample is that mean (in
// LoadUnitBytes units) as of sampleAt, and intMark the server's occInt at
// sampleAt. due mirrors the server's owed fused completion: its freeAt
// while pendingTx holds, 0 when nothing is owed (a link serialization
// never ends at time 0, since every packet first crosses its NIC), so
// Load can tell whether a settle is due without touching the server.
type linkLoad struct {
	sample   int
	sampleAt sim.Time
	intMark  float64
	due      sim.Time
}

// queued reports whether any VC holds a packet.
func (s *server) queued() bool { return s.nonEmpty != 0 }

// pushPacket appends p to s's VC vc queue (buffer space must already be
// accounted via occ/occTotal).
func (f *Fabric) pushPacket(s *server, vc int, p *Packet) {
	s.queues[vc].push(&f.pool, p)
	s.nonEmpty |= 1 << uint(vc)
}

// popPacket dequeues the head of s's VC vc queue.
func (f *Fabric) popPacket(s *server, vc int) *Packet {
	q := &s.queues[vc]
	p := q.pop(&f.pool)
	if q.empty() {
		s.nonEmpty &^= 1 << uint(vc)
	}
	return p
}

// Fabric is a live simulated Aries network on a kernel.
type Fabric struct {
	k      *sim.Kernel        //simlint:resetsafe kernel lifecycle is the caller's (reset as a pair, see core.Machine)
	topo   *topology.Topology //simlint:resetsafe immutable topology
	engine *routing.Engine    //simlint:resetsafe stateless between decisions: scratch contents are dead after each route
	params Params             //simlint:resetsafe immutable config; changes force a rebuild (core.Machine warm checks)
	rng    *rand.Rand

	// servers is the one slab every server lives in, by server.idx
	// (typed-event and waiter lookup): links first, so a LinkID is also
	// its server's index, then node n's injection server at nLinks+2n and
	// its ejection server right after (see injector and ejector).
	servers []server
	// loads is each link's congestion-estimate state, by LinkID; its
	// length is the link count.
	loads    []linkLoad
	hid      sim.HandlerID //simlint:resetsafe handler registration survives kernel Reset by design
	counters *Counters
	// localHead..localTail is the FIFO of same-node messages awaiting
	// their evLocal delivery, linked through Message.localNext.
	localHead, localTail *Message

	pool packetPool

	// Monotonic whole-fabric statistics.
	PacketsSent      uint64
	PacketsDelivered uint64

	// Network transit time (injection-head to delivery, excluding the
	// injection queue wait) split by route class, data packets only.
	MinimalTransit    sim.Time
	MinimalCount      uint64
	NonMinimalTransit sim.Time
	NonMinimalCount   uint64
}

// New builds a fabric over topo on kernel k. seed drives the adaptive
// routing's candidate sampling.
func New(k *sim.Kernel, topo *topology.Topology, params Params, engineCfg routing.Config, seed int64) *Fabric {
	f := &Fabric{
		k:      k,
		topo:   topo,
		params: params,
		rng:    rand.New(rand.NewSource(seed)),
	}
	f.engine = routing.NewEngine(topo, f, engineCfg)
	f.hid = k.RegisterHandler(f)
	f.counters = NewCounters(topo)

	nLinks := len(topo.Links)
	slots := topo.Cfg.Capacity()
	tiles := topo.TilesPerRouter()
	f.servers = make([]server, nLinks+2*slots)
	f.loads = make([]linkLoad, nLinks)
	for i := range topo.Links {
		l := &topo.Links[i]
		s := &f.servers[i]
		*s = server{
			kind: kindLink, ctr: int32(int(l.Src)*tiles + l.Tile),
			bw: l.Bandwidth, lat: l.Latency,
			flitTime: sim.Time(float64(FlitBytes) / l.Bandwidth * 1e12),
			capFlits: params.BufferFlits,
		}
	}
	// Aries NIC links are symmetric: ejection runs at the injection rate.
	nicFlit := sim.Time(float64(FlitBytes) / topo.Cfg.InjectionBandwidth * 1e12)
	for n := 0; n < slots; n++ {
		node := topology.NodeID(n)
		ctr := int32(int(topo.RouterOfNode(node))*tiles + topo.ProcReqTile(topo.NICIndexOfNode(node)))
		*f.injector(node) = server{
			ctr: ctr, kind: kindInject,
			bw: topo.Cfg.InjectionBandwidth, lat: topo.Cfg.NICLatency,
			flitTime: nicFlit,
			capFlits: 0, // unbounded: host memory
		}
		*f.ejector(node) = server{
			ctr: ctr, kind: kindEject,
			bw: topo.Cfg.InjectionBandwidth, lat: topo.Cfg.NICLatency,
			flitTime: nicFlit,
			capFlits: params.BufferFlits,
		}
	}

	// Carve every server's per-VC queues and occupancies, and pre-size its
	// waiter lists, out of shared slabs: a handful of allocations instead
	// of several per server. Queues are list headers into the packet slab
	// (see pktQueue), so they need no backing storage of their own. The
	// waiter lists start with room for waiterSlots entries so the steady
	// state starts at construction: without it, each list grows lazily
	// through the 1→2→4→8 append doublings the first time traffic blocks
	// on its server, and those cold-path allocations show up as a long
	// decaying tail in the per-packet allocation gate. Three-index slicing
	// caps each sub-slice so an append past its slot copies out of the
	// slab instead of stomping its neighbor.
	const waiterSlots = 8 // initial blocked-upstream entries per server
	nq := nLinks*numVC + 2*slots
	qslab := make([]pktQueue, nq)
	oslab := make([]int32, nq)
	wslab := make([]int32, 2*len(f.servers)*waiterSlots)
	rslab := make([]waitReg, len(f.servers)*waiterSlots)
	off := 0
	for i := range f.servers {
		s := &f.servers[i]
		s.idx = int32(i)
		nvc := 1
		if s.kind == kindLink {
			nvc = numVC
		}
		s.queues = qslab[off : off+nvc : off+nvc]
		s.occ = oslab[off : off+nvc : off+nvc]
		off += nvc
		wo := 2 * i * waiterSlots
		s.waiters = wslab[wo : wo : wo+waiterSlots]
		s.waking = wslab[wo+waiterSlots : wo+waiterSlots : wo+2*waiterSlots]
		ro := i * waiterSlots
		s.waitingOn = rslab[ro : ro : ro+waiterSlots]
	}
	return f
}

// Typed kernel event kinds dispatched through Fabric.HandleEvent. Using
// the sim.Handler fast path keeps the three per-packet event types —
// serialization completion, propagation arrival, and the batched
// backpressure wake — free of closure allocations.
const (
	// evFinishTx: serialization at server a completed. The in-flight
	// packet is the head of the server's arbitration-winning VC
	// (lastVC), which cannot change while the server is busy.
	evFinishTx uint8 = iota
	// evArrive: packet b (slab slot) arrives at its next hop, server a,
	// after propagation. arrive recomputes the server from the packet's
	// route; a names it for the event stream.
	evArrive
	// evWake: flush server a's batched waiter snapshot (see pool.go).
	evWake
	// evHopDone (FuseLinks): packet b finished serializing at link
	// server a AND propagated to its next hop — the fused replacement
	// for an evFinishTx/evArrive pair, scheduled at serialization start.
	evHopDone
	// evSettle (FuseLinks): perform server a's deferred sender-side
	// completion at exactly its freeAt instant. Scheduled lazily, only
	// when queued backlog or blocked upstreams need the completion at
	// freeAt rather than at the fused hop-done.
	evSettle
	// evLocal: the oldest pending same-node message (Fabric.localHead)
	// is delivered. Every one waits the same localLatency and ties fire in
	// scheduling order, so these events fire in the FIFO's order.
	evLocal
)

// HandleEvent implements sim.Handler: the fabric's allocation-free event
// dispatch.
func (f *Fabric) HandleEvent(kind uint8, a, b int64) {
	switch kind {
	case evFinishTx:
		f.finishTx(&f.servers[a])
	case evArrive:
		f.arrive(f.packetOf(b))
	case evWake:
		f.wakeWaiters(&f.servers[a])
	case evHopDone:
		f.hopDone(&f.servers[a], f.packetOf(b))
	case evSettle:
		s := &f.servers[a]
		s.settleEvt = false
		f.settle(s)
		f.tryStart(s)
	case evLocal:
		m := f.localHead
		f.localHead, m.localNext = m.localNext, nil
		if f.localHead == nil {
			f.localTail = nil
		}
		f.complete(m)
	}
}

// complete records m's delivery at the current time and fires its Done
// signal.
func (f *Fabric) complete(m *Message) {
	m.DeliveredAt = f.k.Now()
	if m.OnDelivered != nil {
		m.OnDelivered(m)
	}
	m.Done.Fire(f.k)
}

// Kernel returns the fabric's simulation kernel.
func (f *Fabric) Kernel() *sim.Kernel { return f.k }

// Topology returns the fabric's topology.
func (f *Fabric) Topology() *topology.Topology { return f.topo }

// Counters returns the live counter set. Overdue fused completions
// settle first, so every external sample point (LDMS ticks, autoperf
// snapshots, run results) reads the same tile counters the split
// reference model would show at this instant.
func (f *Fabric) Counters() *Counters {
	f.settleAll()
	return f.counters
}

// LoadUnitBytes is the granularity of the load estimate exposed to the
// adaptive routing (a credit-sized unit, not a whole packet): with 256B
// units, typical congested queues measure in the tens, so the Aries AD2
// additive bias of 4 is genuinely "weak" and the AD3 4x shift "strong",
// matching the paper's characterization of the modes.
const LoadUnitBytes = 256

// Load implements routing.LoadEstimator: the mean buffered occupancy of a
// link in LoadUnitBytes units, averaged over the last LoadStaleness
// window and refreshed only at window boundaries. This reproduces the two
// defining properties of the hardware's credit-based congestion metric:
// it lags reality by a round-trip, and it reflects sustained utilization
// rather than the instantaneous queue.
func (f *Fabric) Load(id topology.LinkID) int {
	ld := &f.loads[id]
	now := f.k.Now()
	// An overdue fused release is part of the occupancy history. The due
	// mirror answers "is a settle owed now?" from the dense load array;
	// the server itself is touched only when one is, or when the sample
	// window rolls over. Load runs dozens of times per routing decision.
	if d := ld.due; d != 0 && now >= d {
		f.settle(&f.servers[id])
	}
	if f.params.LoadStaleness <= 0 {
		return f.jitter(f.servers[id].occTotal * FlitBytes / LoadUnitBytes)
	}
	if dt := now - ld.sampleAt; dt >= f.params.LoadStaleness {
		s := &f.servers[id]
		s.syncOcc(now)
		meanFlits := (s.occInt - ld.intMark) / float64(dt)
		ld.sample = int(meanFlits) * FlitBytes / LoadUnitBytes
		ld.intMark = s.occInt
		ld.sampleAt = now
	}
	return f.jitter(ld.sample)
}

// syncOcc folds the occupancy-time integral forward to now. Must be
// called before every occTotal change.
func (s *server) syncOcc(now sim.Time) {
	if now > s.occAt {
		s.occInt += float64(s.occTotal) * float64(now-s.occAt)
		s.occAt = now
	}
}

// bumpOcc adjusts a VC's occupancy, keeping the integral consistent. An
// overdue fused completion settles first (its release is backdated to
// freeAt, so it must land before occAt advances past that instant); the
// settle path itself re-enters with pendingTx already cleared. Every
// release matches an earlier reservation of the same packet's flits, so
// occupancy never goes negative; if it does, the model is broken and
// occUnderflow panics rather than silently clamping.
func (f *Fabric) bumpOcc(s *server, vc, delta int, now sim.Time) {
	if s.pendingTx && now >= s.freeAt {
		f.settle(s)
	}
	s.syncOcc(now)
	s.occ[vc] += int32(delta)
	s.occTotal += delta
	if s.occ[vc] < 0 {
		s.occUnderflow(vc, delta)
	}
}

// occUnderflow reports a buffer release with no matching reservation.
func (s *server) occUnderflow(vc, delta int) {
	panic(fmt.Sprintf("network: server %d released %d flits on VC %d it never reserved (VC occupancy %d)",
		s.idx, -delta, vc, s.occ[vc]))
}

// jitter applies the estimate error model: a multiplicative uniform error
// of ±LoadJitter. Zero load stays zero (an idle port has no credits
// outstanding, so the hardware reads it exactly).
func (f *Fabric) jitter(load int) int {
	j := f.params.LoadJitter
	if j <= 0 || load == 0 {
		return load
	}
	factor := 1 - j + 2*j*f.rng.Float64()
	v := int(float64(load)*factor + 0.5)
	if v < 0 {
		v = 0
	}
	return v
}

// flitsOf returns the flit count of a payload.
func (f *Fabric) flitsOf(bytes int) int {
	n := (bytes + FlitBytes - 1) / FlitBytes
	if n < 1 {
		n = 1
	}
	return n
}

// Send transfers bytes from src to dst with the given routing mode,
// returning a Message whose Done signal fires on complete delivery.
// Each packet is routed independently when it reaches the head of the
// injection queue, so adaptive decisions see live congestion.
func (f *Fabric) Send(src, dst topology.NodeID, bytes int, mode routing.Mode) *Message {
	m := &Message{Src: src, Dst: dst, Bytes: bytes, Done: sim.NewSignal()}
	if src == dst {
		m.remaining = 0
		if f.localTail == nil {
			f.localHead = m
		} else {
			f.localTail.localNext = m
		}
		f.localTail = m
		f.k.AfterEvent(localLatency, f.hid, evLocal, 0, 0)
		return m
	}
	nPackets := (bytes + PacketBytes - 1) / PacketBytes
	if nPackets < 1 {
		nPackets = 1
	}
	m.remaining = nPackets
	rem := bytes
	var inj *server
	for i := 0; i < nPackets; i++ {
		sz := PacketBytes
		if sz > rem {
			sz = rem
		}
		if sz < 1 {
			sz = 1
		}
		rem -= sz
		p := f.allocPacket()
		p.src, p.dst = src, dst
		p.bytes, p.flits = sz, f.flitsOf(sz)
		p.sendTime, p.msg, p.mode = f.k.Now(), m, mode
		inj = f.enqueue(p)
	}
	f.PacketsSent += uint64(nPackets)
	f.tryStart(inj)
	return m
}

// enqueue queues p at its source node's injection server and returns that
// server, which the caller starts.
func (f *Fabric) enqueue(p *Packet) *server {
	inj := f.injector(p.src)
	f.bumpOcc(inj, 0, p.flits, f.k.Now())
	f.pushPacket(inj, 0, p)
	return inj
}

// routePacket assigns p's route in its routing mode using the adaptive
// engine and live load.
// The winning path is copied into the packet's inline route array, so
// only the engine's internal scratch and p itself are touched — no
// per-decision allocation. The capped slice makes a path longer than the
// array reallocate rather than overrun it; routeOverflow then panics, so
// such a path can never silently move a route to the heap.
func (f *Fabric) routePacket(p *Packet) {
	srcR := f.topo.RouterOfNode(p.src)
	dstR := f.topo.RouterOfNode(p.dst)
	links, nonMin := f.engine.RouteInto(p.route[:0:len(p.route)], p.mode, f.rng, srcR, dstR, 0)
	if len(links) > len(p.route) {
		routeOverflow(len(links))
	}
	p.nroute = uint8(len(links))
	p.routed = true
	p.routedAt = f.k.Now()
	p.nonMin = nonMin
	if p.msg != nil {
		if nonMin {
			p.msg.nonMin++
		} else {
			p.msg.minimal++
		}
	}
}

// routeOverflow reports a routing decision longer than a packet's inline
// route array.
func routeOverflow(n int) {
	panic(fmt.Sprintf("network: route of %d links exceeds routing.MaxPathLinks (%d)", n, routing.MaxPathLinks))
}

// injector and ejector return node n's NIC servers, which New lays out
// after the links in pairs: injection at nLinks+2n, ejection after it.
func (f *Fabric) injector(n topology.NodeID) *server {
	return &f.servers[len(f.loads)+2*int(n)]
}

func (f *Fabric) ejector(n topology.NodeID) *server {
	return &f.servers[len(f.loads)+2*int(n)+1]
}

// nextHop is the fabric's one hop rule: where p goes after the server now
// holding it, which must not be an ejection server (serialization there
// delivers). A packet's hop index is -1 at its injection server and h on
// route link h, so its next hop is always hop+1: the server is
// route[hop+1], or the destination's ejection server once the route runs
// out. The VC there is the new hop index on a link and 0 at a NIC.
func (f *Fabric) nextHop(p *Packet) (n *server, vc, hop int) {
	hop = p.hop + 1
	if hop < int(p.nroute) {
		return &f.servers[p.route[hop]], hop, hop
	}
	return f.ejector(p.dst), 0, hop
}

// hasSpace reports whether server s can accept flits on VC vc. A server
// with capFlits == 0 is unbounded; an empty VC always accepts one packet
// regardless of size so oversized packets cannot wedge.
func (s *server) hasSpace(vc, flits int) bool {
	if s.capFlits == 0 {
		return true
	}
	if s.occ[vc] == 0 {
		return true
	}
	return int(s.occ[vc])+flits <= s.capFlits
}

// counter returns the flat tile-counter index that records traffic
// through s for packet p. NIC servers map to processor tiles, split
// request/response by packet kind; a link's tile is the same for both.
func (s *server) counter(p *Packet) int32 {
	if p.response && s.kind != kindLink {
		return s.ctr + 1
	}
	return s.ctr
}

// release is a transmission's sender-side completion at s: dequeue the
// head of the winning VC (lastVC), count its flits on s's tile, release
// its input buffer space at time at, clear busy, and flush the blocked
// upstreams. It returns the dequeued packet.
func (f *Fabric) release(s *server, at sim.Time) *Packet {
	vc := s.lastVC
	p := f.popPacket(s, vc)
	f.counters.flits[s.counter(p)] += uint64(p.flits)
	f.bumpOcc(s, vc, -p.flits, at)
	s.busy = false
	f.flushWaiters(s)
	return p
}

// settle performs a fused transmission's deferred sender-side completion
// once its serialization-end instant has passed, releasing at freeAt
// (backdated, which keeps the occupancy-time integral feeding Load
// exact). Every code path that reads or mutates sender-side state —
// arbitration, space checks, occupancy bumps, load queries, counter
// snapshots — settles first, so no reader can observe the deferred state.
// A settle strictly after freeAt can only happen when nothing needed the
// completion at freeAt itself (no backlog, no waiters: those schedule an
// evSettle for exactly freeAt), which is why deferring it to the fused
// hop-done is unobservable.
func (f *Fabric) settle(s *server) {
	if !s.pendingTx || f.k.Now() < s.freeAt {
		return
	}
	s.pendingTx = false
	f.loads[s.idx].due = 0 // only link servers fuse, so idx is a LinkID
	f.release(s, s.freeAt)
}

// settleDue schedules the evSettle that makes a fused sender's deferred
// completion happen at exactly freeAt. Called when backlog or waiters
// appear while the transmission is still in flight.
func (f *Fabric) settleDue(s *server) {
	if !s.settleEvt {
		s.settleEvt = true
		f.k.AtEvent(s.freeAt, f.hid, evSettle, int64(s.idx), 0)
	}
}

// fusedBacklog reports whether a fused-pending sender has queued work
// beyond its in-flight packet — work the split reference model would
// start at freeAt, so the fused model must settle then too.
func (s *server) fusedBacklog() bool {
	return s.nonEmpty != 1<<uint(s.lastVC) || s.queues[s.lastVC].len() > 1
}

// hopDone is the fused per-link-hop event (Params.FuseLinks): packet p
// has both finished serializing at link server s and propagated to its
// next hop. The sender side settles here if no earlier touch already
// did; the arrival side is evArrive's.
func (f *Fabric) hopDone(s *server, p *Packet) {
	f.settle(s)
	f.arrive(p)
	f.tryStart(s)
}

// arrive moves p into its next hop, on the VC and hop index nextHop
// gives, and starts that server.
func (f *Fabric) arrive(p *Packet) {
	n, vc, hop := f.nextHop(p)
	p.hop = hop
	f.pushPacket(n, vc, p)
	f.tryStart(n)
}

// hopDelay is the propagation delay of a link or injection hop from s into
// n: s's latency plus the HopContention charge for n's backlog (crossbar
// and arbitration contention at the next router). A fused completion n
// owes settles first, so the backlog reads post-completion.
func (f *Fabric) hopDelay(s, n *server) sim.Time {
	if n.pendingTx {
		f.settle(n)
	}
	delay := s.lat
	if hc := f.params.HopContention; hc > 0 && n.occTotal > 0 {
		delay += sim.Time(hc * float64(n.occTotal) * float64(n.flitTime))
	}
	return delay
}

// settleAll settles every overdue fused completion, bringing all
// sender-side state (tile flit counters, occupancies) to what the split
// reference model would show at this instant. Counter snapshots call it
// so fused and reference runs read identically at every sample point.
func (f *Fabric) settleAll() {
	for i := range f.servers {
		if s := &f.servers[i]; s.pendingTx {
			f.settle(s)
		}
	}
}

// tryStart arbitrates s's VC heads round-robin and begins serializing the
// first one whose downstream buffer has space. If work is queued but
// nothing can proceed, a stall interval starts.
//
// The scan walks set bits of the nonEmpty mask directly instead of
// testing all numVC positions: hi holds the VCs strictly above the
// round-robin pointer (visited first, ascending), lo the wrap-around
// remainder up to and including lastVC — the exact visit order of the
// old modular loop, skipping empty VCs for free. tryStart is the hottest
// fabric function (it runs per injection, arrival, completion, and wake),
// and most servers have 1-2 of 12 VCs occupied.
func (f *Fabric) tryStart(s *server) {
	if s.pendingTx {
		if f.k.Now() >= s.freeAt {
			f.settle(s)
		} else {
			// Still serializing a fused transmission. If work is now
			// queued beyond the in-flight head, the reference model
			// would start it at freeAt — make sure we settle then.
			if s.fusedBacklog() {
				f.settleDue(s)
			}
			return
		}
	}
	if s.busy || s.nonEmpty == 0 {
		return
	}
	hi := s.nonEmpty >> uint(s.lastVC+1) << uint(s.lastVC+1)
	for m := hi; m != 0; m &= m - 1 {
		if f.startVC(s, bits.TrailingZeros32(m)) {
			return
		}
	}
	for m := s.nonEmpty &^ hi; m != 0; m &= m - 1 {
		if f.startVC(s, bits.TrailingZeros32(m)) {
			return
		}
	}
	// Nothing startable: begin a stall interval if work is queued.
	if !s.blocked && s.queued() {
		s.blocked = true
		s.stallAt = f.k.Now()
	}
}

// startVC tries to begin serializing the head of s's VC vc, reporting
// whether serialization started (false: downstream full, caller moves to
// the next candidate VC).
func (f *Fabric) startVC(s *server, vc int) bool {
	p := s.queues[vc].front(&f.pool)
	if s.kind == kindInject && !p.routed {
		// Route lazily at the head of the injection queue so the
		// adaptive decision sees current congestion.
		f.routePacket(p)
	}
	var n *server // nil at an ejection server: serialization delivers
	if s.kind != kindEject {
		var dvc int
		n, dvc, _ = f.nextHop(p)
		// An overdue fused completion at the next hop must land before
		// we read its buffer state (the reference model freed that
		// space at n's freeAt).
		if n.pendingTx {
			f.settle(n)
		}
		if !n.hasSpace(dvc, p.flits) {
			f.registerWaiter(s, n)
			if n.pendingTx {
				// We now depend on n's in-flight completion; its wake
				// must fire at freeAt, as the reference model's would.
				f.settleDue(n)
			}
			return false // other VCs may still proceed
		}
		// Reserve downstream space for the whole serialization
		// (wormhole-style occupancy).
		f.bumpOcc(n, dvc, p.flits, f.k.Now())
	}
	if s.blocked {
		// Charge the blocked interval, given the packet that finally
		// unblocked it. Blocking on a full ejection queue is endpoint
		// congestion and lands on the destination's processor tile (the
		// paper's Proc_req/Proc_rsp stalls); everything else lands on s's
		// tile.
		s.blocked = false
		at := s
		if n != nil && n.kind == kindEject {
			at = n
		}
		f.counters.stalls[at.counter(p)] += float64(f.k.Now()-s.stallAt) / float64(s.flitTime)
	}
	s.lastVC = vc
	s.busy = true
	ser := sim.Time(float64(p.bytes) / s.bw * 1e12)
	if f.params.FuseLinks && s.kind == kindLink &&
		s.nonEmpty == 1<<uint(vc) && s.queues[vc].len() == 1 &&
		len(s.waiters) == 0 {
		// Clean link hop: nothing else queued here and no blocked
		// upstreams, so nothing the reference model does at freeAt is
		// needed before the packet lands downstream. Schedule the one
		// fused hop-done event with the contention delay precomputed
		// from the downstream backlog as of now (the reference reads it
		// at freeAt — the coarsening FuseLinks documents). Sender-side
		// completion is owed at freeAt and settles lazily; if backlog
		// or waiters appear mid-flight, tryStart/registerWaiter
		// schedule an evSettle for exactly freeAt.
		//
		// Injection hops are never fused: their arbitration triggers
		// the routing decisions that draw from the shared RNG, and the
		// reference event order must be preserved around every draw.
		// Ejection hops have no arrival to fuse (serialization end IS
		// delivery).
		s.pendingTx = true
		s.freeAt = f.k.Now() + ser
		f.loads[s.idx].due = s.freeAt
		f.k.AfterEvent(ser+f.hopDelay(s, n), f.hid, evHopDone, int64(s.idx), int64(p.idx))
		return true
	}
	// Typed event: finishTx recovers p from s itself — lastVC and the
	// queue head are frozen while the server is busy.
	f.k.AfterEvent(ser, f.hid, evFinishTx, int64(s.idx), 0)
	return true
}

// finishTx completes serialization at s: releases the in-flight packet,
// delivers it from an ejection server or forwards it to its next hop
// after the propagation delay, and re-arbitrates s.
func (f *Fabric) finishTx(s *server) {
	p := f.release(s, f.k.Now())
	if s.kind == kindEject {
		f.deliver(p)
	} else {
		n, _, _ := f.nextHop(p)
		f.k.AfterEvent(f.hopDelay(s, n), f.hid, evArrive, int64(n.idx), int64(p.idx))
	}
	f.tryStart(s)
}

// deliver completes a packet at its destination node.
func (f *Fabric) deliver(p *Packet) {
	f.PacketsDelivered++
	if !p.response {
		transit := f.k.Now() - p.routedAt
		if p.msg != nil {
			p.msg.TransitSum += transit
		}
		if p.nonMin {
			f.NonMinimalTransit += transit
			f.NonMinimalCount++
		} else {
			f.MinimalTransit += transit
			f.MinimalCount++
		}
	}
	if p.response {
		// Response arrived back at the original requester: close the
		// ORB latency sample.
		f.counters.ORBTimeSum[p.dst] += f.k.Now() - p.sendTime
		f.counters.ORBCount[p.dst]++
		f.releasePacket(p)
		return
	}
	m := p.msg
	if m != nil {
		m.remaining--
		if m.remaining == 0 {
			f.complete(m)
		}
	}
	// Every data packet sends its tracked response back to the source.
	reqSrc, reqDst, reqSent, mode := p.src, p.dst, p.sendTime, p.mode
	f.releasePacket(p)
	rsp := f.allocPacket()
	rsp.src, rsp.dst = reqDst, reqSrc
	rsp.bytes, rsp.flits = responseBytes, f.flitsOf(responseBytes)
	rsp.response, rsp.mode = true, mode
	rsp.sendTime = reqSent // pair latency spans request + response
	f.tryStart(f.enqueue(rsp))
}
