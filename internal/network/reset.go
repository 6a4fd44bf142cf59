package network

// This file holds the fabric's warm-reuse path. Building a Fabric is the
// single largest allocation source in an ensemble run (half of all bytes:
// per-server queues, slabs, counters, the routing engine), and every seed
// of every campaign point used to pay it. Reset rewinds an existing
// fabric to its just-constructed state in place, so an ensemble worker
// constructs one machine and replays it for every run assigned to its
// slot. The invariant is behavioural identity: a reset fabric must
// produce byte-identical results and identical observable stats to a
// freshly constructed one with the same parameters and seed
// (TestMachineResetEquivalence pins this end to end).

// reset rewinds one server to its post-construction state, keeping every
// backing array (queue and occupancy slab views, waiter slices) at its
// grown capacity.
func (s *server) reset() {
	clear(s.queues)
	clear(s.occ)
	s.occTotal = 0
	s.nonEmpty = 0
	s.busy = false
	s.lastVC = 0
	s.blocked = false
	s.stallAt = 0
	s.pendingTx = false
	s.freeAt = 0
	s.settleEvt = false
	s.occInt = 0
	s.occAt = 0
	s.waiters = s.waiters[:0]
	s.waking = s.waking[:0]
	s.wakeGen = 0
	s.waitingOn = s.waitingOn[:0]
}

// Reset zeroes every counter in place, keeping the backing slabs (the
// Flits and Stalls rows are views into flits and stalls).
func (c *Counters) Reset() {
	clear(c.flits)
	clear(c.stalls)
	clear(c.ORBTimeSum)
	clear(c.ORBCount)
}

// Reset rewinds the fabric to its just-constructed state for the given
// seed, reusing every allocation: server queues and slabs, the packet
// slab, the counter slabs, and the routing engine's scratch all keep
// their capacity. The caller owns the kernel lifecycle — the fabric's
// handler registration survives a kernel Reset, so the pair (kernel,
// fabric) resets as a unit (see core.Machine).
//
// Reset must only be called on a drained fabric (all sent traffic
// delivered, kernel queue empty); resetting mid-flight discards packets
// without firing their messages' Done signals.
func (f *Fabric) Reset(seed int64) {
	for i := range f.servers {
		f.servers[i].reset()
	}
	clear(f.loads)
	f.counters.Reset()
	f.pool.reset()
	f.localHead, f.localTail = nil, nil
	// Reseeding the existing source restarts the identical stream a fresh
	// rand.New(rand.NewSource(seed)) would produce, without the two
	// allocations.
	f.rng.Seed(seed)

	f.PacketsSent = 0
	f.PacketsDelivered = 0
	f.MinimalTransit = 0
	f.MinimalCount = 0
	f.NonMinimalTransit = 0
	f.NonMinimalCount = 0
}
