package apps

import (
	"repro/internal/mpi"
	"repro/internal/sim"
)

// MILC reproduces the paper's characterization of the MILC lattice-QCD
// code (Table I): a 4D stencil with heavy KB-range point-to-point traffic
// overlapped with compute, ending each step with latency-bound 8-byte
// MPI_Allreduce operations. Dominant calls: Allreduce, Wait, Isend; ~52%
// of runtime in MPI at 256 nodes.
//
// With Reorder set it models MILCREORDER, the rank-reordered variant: the
// logical 4D grid is laid out in 2x2x2x2 blocks so torus neighbors land on
// nearby nodes, shifting time from Allreduce into Wait (Table I's
// MILCREORDER row) and slightly lowering the runtime (Table II).
//
// The blocked layout differs from the plain one only when at least two
// dimensions hold more than one block. A grid with an odd dimension
// falls back to the identity (8 nodes: [2 2 2 1]), and so does a grid
// with one block per dimension except the first (16 nodes: [2 2 2 2],
// 32 nodes: [4 2 2 2]), where the blocked order is the row-major order.
// At those sizes MILCREORDER runs exactly as MILC.
type MILC struct {
	Reorder bool
}

// Name returns "MILC" or "MILCREORDER".
func (m MILC) Name() string {
	if m.Reorder {
		return "MILCREORDER"
	}
	return "MILC"
}

// milcBlock is the per-dimension block size used by the reordered layout.
const milcBlock = 2

// Main returns the per-rank body.
func (m MILC) Main(cfg Config) func(r *mpi.Rank) {
	// Sizes are node-level aggregates: one simulated rank stands for a
	// full KNL node (64 MPI ranks on Theta), so the per-neighbor halo is
	// 64 ranks x KB-range messages.
	const (
		haloBytes     = 512 * 1024 // node-aggregate 4D halo per neighbor
		reduceBytes   = 8          // 8B allreduce (latency-bound)
		reducesPerIt  = 3
		computePerIt  = 300 * sim.Microsecond
		computeSlices = 2 // compute is split to overlap with the exchange
	)
	return func(r *mpi.Rank) {
		n := r.Size()
		dims := factorize4(n)
		logical := r.ID()
		if m.Reorder {
			logical = milcReorder(r.ID(), dims)
		}
		neighbors := torusNeighbors(logical, dims)
		// Map logical neighbors back to actual ranks.
		peers := make([]int, len(neighbors))
		for i, nb := range neighbors {
			if m.Reorder {
				peers[i] = milcInverse(nb, dims)
			} else {
				peers[i] = nb
			}
		}
		halo := cfg.scaled(haloBytes)
		for it := 0; it < cfg.Iterations; it++ {
			tag := 1000 + it
			recvs := make([]*mpi.Request, len(peers))
			for i, p := range peers {
				recvs[i] = r.Irecv(p, tag, halo)
			}
			sends := make([]*mpi.Request, len(peers))
			for i, p := range peers {
				sends[i] = r.Isend(p, tag, halo)
			}
			// Overlap: compute while the exchange is in flight.
			computeSleep(r, computePerIt/computeSlices)
			r.Waitall(append(append([]*mpi.Request{}, recvs...), sends...)...)
			computeSleep(r, computePerIt-computePerIt/computeSlices)
			// Latency-bound reductions close the step.
			for k := 0; k < reducesPerIt; k++ {
				r.Allreduce(reduceBytes)
			}
		}
	}
}

// blockable reports whether the blocked layout is a bijection: every
// dimension must be a multiple of the block size. Otherwise both mapping
// directions fall back to identity (plain MILC layout).
func blockable(dims [4]int) bool {
	for _, d := range dims {
		if d%milcBlock != 0 {
			return false
		}
	}
	return true
}

// milcBlockVol is the ranks per block (milcBlock^4).
const milcBlockVol = milcBlock * milcBlock * milcBlock * milcBlock

// milcReorder maps a rank to its logical grid position under the blocked
// layout: ranks are assigned to the grid in blocks of milcBlock^4 so that
// consecutive ranks (which sit on the same or adjacent nodes) are torus
// neighbors.
func milcReorder(rank int, dims [4]int) int {
	if !blockable(dims) {
		return rank
	}
	var bdims [4]int
	for i := range dims {
		bdims[i] = dims[i] / milcBlock
	}
	block := rank / milcBlockVol
	within := rank % milcBlockVol
	var c [4]int
	for i := 3; i >= 0; i-- {
		bc := block % bdims[i]
		block /= bdims[i]
		wc := within % milcBlock
		within /= milcBlock
		c[i] = bc*milcBlock + wc
	}
	return torusRank(c, dims)
}

// milcInverse inverts milcReorder.
func milcInverse(logical int, dims [4]int) int {
	if !blockable(dims) {
		return logical
	}
	c := torusCoords(logical, dims)
	var bdims [4]int
	for i := range dims {
		bdims[i] = dims[i] / milcBlock
	}
	block, within := 0, 0
	for i := 0; i < 4; i++ {
		block = block*bdims[i] + c[i]/milcBlock
		within = within*milcBlock + c[i]%milcBlock
	}
	return block*milcBlockVol + within
}
