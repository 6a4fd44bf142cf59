package apps

import (
	"fmt"
	"math/rand"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// NoisePattern selects a synthetic background-traffic shape.
type NoisePattern uint8

// Background traffic patterns used to emulate the production mix: the
// paper stresses that medium-size jobs share links with whatever else is
// running, so the generator mixes global, local, and incast-style flows.
const (
	// NoiseUniform sends to uniformly random ranks (global traffic).
	NoiseUniform NoisePattern = iota
	// NoiseHotspot aims most traffic at a few hot ranks (incast).
	NoiseHotspot
	// NoiseStencil exchanges with ring neighbors (local traffic).
	NoiseStencil
	// NoiseShift sends to a rotating partner (alltoall-like sweep
	// without collective synchronization).
	NoiseShift
)

func (p NoisePattern) String() string {
	switch p {
	case NoiseUniform:
		return "uniform"
	case NoiseHotspot:
		return "hotspot"
	case NoiseStencil:
		return "stencil"
	case NoiseShift:
		return "shift"
	}
	return fmt.Sprintf("NoisePattern(%d)", uint8(p))
}

// Noise is a deadline-driven background traffic generator. Senders push
// one-way messages (completion on delivery); no receives are posted, so
// any rank count works and no coordination is needed.
type Noise struct {
	Pattern  NoisePattern
	MsgBytes int
	// Gap is the think time between messages; smaller means more
	// intense background load.
	Gap sim.Time
	// Duration bounds the generator (virtual time from its start).
	Duration sim.Time
	// Cancel, when non-nil, stops the generator early: each rank exits
	// at its next iteration boundary once the signal fires.
	Cancel *sim.Signal
}

// Name identifies the generator in logs.
func (n Noise) Name() string { return "noise-" + n.Pattern.String() }

// Main returns the per-rank body.
func (n Noise) Main(cfg Config) func(r *mpi.Rank) {
	msg := n.MsgBytes
	if msg <= 0 {
		msg = 64 * 1024
	}
	gap := n.Gap
	if gap <= 0 {
		gap = 200 * sim.Microsecond
	}
	return func(r *mpi.Rank) {
		size := r.Size()
		if size <= 1 {
			return
		}
		rng := lazyRNG{cfg: cfg, rank: r.ID()}
		deadline := r.Now() + n.Duration
		hot := int(cfg.Seed % int64(size))
		if hot < 0 {
			hot += size
		}
		for it := 0; r.Now() < deadline && (n.Cancel == nil || !n.Cancel.Fired()); it++ {
			q := r.Isend(n.dest(&rng, r.ID(), size, hot, it), 9000, msg)
			r.Wait(q)
			r.Compute(gap)
		}
	}
}

// dest picks the destination of rank's it-th message in a size-rank job
// whose hotspot is rank hot. Only the uniform and hotspot patterns draw
// from rng.
func (n Noise) dest(rng *lazyRNG, rank, size, hot, it int) int {
	var dst int
	switch n.Pattern {
	case NoiseHotspot:
		if rng.Intn(4) > 0 { // 75% of traffic into the hotspot
			dst = hot
		} else {
			dst = rng.Intn(size)
		}
	case NoiseStencil:
		if it%2 == 0 {
			dst = (rank + 1) % size
		} else {
			dst = (rank - 1 + size) % size
		}
	case NoiseShift:
		dst = (rank + 1 + it%(size-1)) % size
	default: // NoiseUniform
		dst = rng.Intn(size)
	}
	if dst == rank {
		dst = (dst + 1) % size
	}
	return dst
}

// lazyRNG is a rank's deterministic random stream (rankRNG), built on the
// first draw. A rand source is about 5 KB, and stencil and shift ranks —
// a large share of every production background — never draw, so they
// never pay for one. The stream a rank does draw is unchanged.
type lazyRNG struct {
	cfg  Config
	rank int
	src  *rand.Rand
}

// Intn draws from the rank's stream, building it on first use.
func (l *lazyRNG) Intn(n int) int {
	if l.src == nil {
		l.src = rankRNG(l.cfg, l.rank)
	}
	return l.src.Intn(n)
}
