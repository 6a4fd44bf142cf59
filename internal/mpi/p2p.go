package mpi

import (
	"repro/internal/network"
	"repro/internal/sim"
)

// AnySource matches a receive against any sender.
const AnySource = -1

// AnyTag matches a receive against any tag.
const AnyTag = -1

// Request is a nonblocking operation handle.
type Request struct {
	done *sim.Signal

	// recv matching state
	src, tag int
	// filled in on match:
	MatchedSrc, MatchedTag int
}

// Done reports whether the operation has completed.
func (q *Request) Done() bool { return q.done.Fired() }

// isend posts a send without timing attribution (used by collectives).
// The request completes on the message's own Done signal, which the
// fabric fires right after OnDelivered: the receiver matches first, then
// the sender resumes.
func (r *Rank) isend(dst, tag, bytes int, a2a bool) *Request {
	r.checkPeer(dst)
	peer := r.world.ranks[dst]
	src := r.id
	m := r.world.fab.Send(r.node, peer.node, bytes, r.modeFor(a2a))
	// On delivery (kernel context): count the route classes and match at
	// the receiver.
	w := r.world
	m.OnDelivered = func(msg *network.Message) {
		mn, nm := msg.RouteCounts()
		w.MinimalPkts += uint64(mn)
		w.NonMinimalPkts += uint64(nm)
		w.TransitSum += msg.TransitSum
		peer.arrived(&envelope{src: src, tag: tag})
	}
	return &Request{done: m.Done}
}

// Isend posts a nonblocking send of `bytes` to dst with tag. The request
// completes when the payload has been delivered (rendezvous semantics:
// congestion lengthens the matching Wait, which is how the paper's
// latency-bound operations feel routing changes).
func (r *Rank) Isend(dst, tag, bytes int) *Request {
	var req *Request
	r.timed(Isend, bytes, func() { req = r.isend(dst, tag, bytes, false) })
	return req
}

// irecv posts a receive without timing attribution.
func (r *Rank) irecv(src, tag int) *Request {
	req := &Request{done: sim.NewSignal(), src: src, tag: tag}
	// Check the unexpected queue first (FIFO matching).
	for i, env := range r.unexpected {
		if matches(req, env) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			req.MatchedSrc, req.MatchedTag = env.src, env.tag
			req.done.Fire(r.world.fab.Kernel())
			return req
		}
	}
	r.posted = append(r.posted, req)
	return req
}

// Irecv posts a nonblocking receive matching (src, tag); use AnySource /
// AnyTag as wildcards.
func (r *Rank) Irecv(src, tag, bytes int) *Request {
	var req *Request
	r.timed(Irecv, bytes, func() { req = r.irecv(src, tag) })
	return req
}

// arrived delivers an envelope to this rank's matching engine. Runs in
// kernel context.
func (r *Rank) arrived(env *envelope) {
	for i, req := range r.posted {
		if matches(req, env) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			req.MatchedSrc, req.MatchedTag = env.src, env.tag
			req.done.Fire(r.world.fab.Kernel())
			return
		}
	}
	r.unexpected = append(r.unexpected, env)
}

func matches(req *Request, env *envelope) bool {
	if req.src != AnySource && req.src != env.src {
		return false
	}
	if req.tag != AnyTag && req.tag != env.tag {
		return false
	}
	return true
}

// wait blocks until req completes, without timing attribution.
func (r *Rank) wait(req *Request) { r.proc.Wait(req.done) }

// Wait blocks until req completes (MPI_Wait).
func (r *Rank) Wait(req *Request) {
	r.timed(Wait, 0, func() { r.wait(req) })
}

// Waitall blocks until every request completes (MPI_Waitall).
func (r *Rank) Waitall(reqs ...*Request) {
	r.timed(Waitall, 0, func() {
		for _, q := range reqs {
			r.wait(q)
		}
	})
}

// Send is a blocking send (MPI_Send): returns when delivered.
func (r *Rank) Send(dst, tag, bytes int) {
	r.timed(Send, bytes, func() {
		req := r.isend(dst, tag, bytes, false)
		r.wait(req)
	})
}

// Recv is a blocking receive (MPI_Recv).
func (r *Rank) Recv(src, tag, bytes int) {
	r.timed(Recv, bytes, func() {
		req := r.irecv(src, tag)
		r.wait(req)
	})
}
