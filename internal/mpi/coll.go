package mpi

// Collective algorithms over the point-to-point layer, mirroring the
// classic MPICH implementations: dissemination barrier, recursive-doubling
// allreduce, binomial bcast, pairwise-exchange alltoallv. These are the
// collectives the paper's Table I lists for its six applications.
// Alltoallv traffic is posted with the A2A routing mode, as Cray MPI does.

// collTagBase keeps collective tags out of the application tag space.
const collTagBase = 1 << 48

// collTag builds a tag unique per (collective invocation, round) so
// back-to-back collectives cannot mismatch. The round space is 2^20, far
// above any round index used (pairwise exchange uses the partner offset).
func (r *Rank) collTag(round int) int {
	return collTagBase + r.seq<<20 + round
}

// startColl begins a collective: bumps the per-rank op sequence (all ranks
// call collectives in the same program order, so sequences agree).
func (r *Rank) startColl() {
	r.seq++
}

// Barrier blocks until all ranks arrive (dissemination algorithm).
func (r *Rank) Barrier() {
	r.timed(Barrier, 0, func() {
		r.startColl()
		n := r.Size()
		for k, round := 1, 0; k < n; k, round = k<<1, round+1 {
			dst := (r.id + k) % n
			src := (r.id - k + n) % n
			sq := r.isend(dst, r.collTag(round), 1, false)
			rq := r.irecv(src, r.collTag(round))
			r.wait(sq)
			r.wait(rq)
		}
	})
}

// Allreduce combines a bytes-sized vector across all ranks and leaves the
// result everywhere (recursive doubling, with pre/post folding for
// non-power-of-two sizes).
func (r *Rank) Allreduce(bytes int) {
	r.timed(Allreduce, bytes, func() {
		r.startColl()
		r.allreduceBody(bytes)
	})
}

func (r *Rank) allreduceBody(bytes int) {
	n := r.Size()
	if n == 1 {
		return
	}
	// Largest power of two <= n.
	pow2 := 1
	for pow2<<1 <= n {
		pow2 <<= 1
	}
	extra := n - pow2
	id := r.id

	// Pre-fold: the top `extra` ranks send their data into the low group.
	if id >= pow2 {
		r.wait(r.isend(id-pow2, r.collTag(62), bytes, false))
	} else if id < extra {
		r.wait(r.irecv(id+pow2, r.collTag(62)))
	}

	// Recursive doubling within the power-of-two group.
	if id < pow2 {
		for mask, round := 1, 0; mask < pow2; mask, round = mask<<1, round+1 {
			partner := id ^ mask
			sq := r.isend(partner, r.collTag(round), bytes, false)
			rq := r.irecv(partner, r.collTag(round))
			r.wait(sq)
			r.wait(rq)
		}
	}

	// Post-fold: results flow back to the top ranks.
	if id >= pow2 {
		r.wait(r.irecv(id-pow2, r.collTag(63)))
	} else if id < extra {
		r.wait(r.isend(id+pow2, r.collTag(63), bytes, false))
	}
}

// Bcast distributes a vector from root (binomial tree).
func (r *Rank) Bcast(root, bytes int) {
	r.timed(Bcast, bytes, func() {
		r.startColl()
		n := r.Size()
		rel := (r.id - root + n) % n
		// Find the mask at which we receive (highest set bit of rel).
		recvMask := 0
		for mask := 1; mask < n; mask <<= 1 {
			if rel&mask != 0 {
				recvMask = mask
			}
		}
		if rel != 0 {
			src := ((rel ^ recvMask) + root) % n
			r.wait(r.irecv(src, r.collTag(60)))
		}
		// Forward to subtree: masks above our receive mask.
		start := recvMask << 1
		if rel == 0 {
			start = 1
		}
		var reqs []*Request
		for mask := start; mask < n; mask <<= 1 {
			if rel+mask < n {
				dst := ((rel | mask) + root) % n
				reqs = append(reqs, r.isend(dst, r.collTag(60), bytes, false))
			}
		}
		for _, q := range reqs {
			r.wait(q)
		}
	})
}

// Alltoallv exchanges sendCounts[d] bytes with each rank d (pairwise
// exchange, n-1 rounds). All ranks must pass structurally consistent
// counts (as MPI requires). Posted with the A2A routing mode.
func (r *Rank) Alltoallv(sendCounts []int) {
	total := 0
	for d, c := range sendCounts {
		if d != r.id {
			total += c
		}
	}
	r.timed(Alltoallv, total, func() {
		r.startColl()
		n := r.Size()
		pow2 := n&(n-1) == 0
		for i := 1; i < n; i++ {
			var sendTo, recvFrom int
			if pow2 {
				sendTo = r.id ^ i
				recvFrom = sendTo
			} else {
				sendTo = (r.id + i) % n
				recvFrom = (r.id - i + n) % n
			}
			sq := r.isend(sendTo, r.collTag(i), sendCounts[sendTo], true)
			rq := r.irecv(recvFrom, r.collTag(i))
			r.wait(sq)
			r.wait(rq)
		}
	})
}
