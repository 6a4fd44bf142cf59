package mpi

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Env mirrors the Cray MPI routing-mode environment variables: the default
// mode used for most operations and the separate mode used by
// MPI_Alltoall[v] implementations.
type Env struct {
	RoutingMode    routing.Mode // MPICH_GNI_ROUTING_MODE (Cray default AD0)
	A2ARoutingMode routing.Mode // MPICH_GNI_A2A_ROUTING_MODE (Cray default AD1)
}

// DefaultEnv returns Cray MPI's factory defaults: AD0 for most traffic,
// AD1 for alltoall.
func DefaultEnv() Env {
	return Env{RoutingMode: routing.AD0, A2ARoutingMode: routing.AD1}
}

// UniformEnv routes all traffic (including alltoall) with one mode — the
// configuration the paper's experiments set via both variables.
func UniformEnv(m routing.Mode) Env {
	return Env{RoutingMode: m, A2ARoutingMode: m}
}

// World is one application's MPI universe: a set of ranks pinned to nodes
// of a shared fabric.
type World struct {
	fab   *network.Fabric
	env   Env
	ranks []*Rank

	Done     *sim.Signal // fires when every rank's main function returns
	running  int
	startAt  sim.Time
	finishAt sim.Time

	// MinimalPkts / NonMinimalPkts count the routing decisions taken by
	// this world's own traffic (diagnostic for routing studies).
	MinimalPkts    uint64
	NonMinimalPkts uint64
	// TransitSum accumulates the network transit of this world's own
	// packets (both route classes).
	TransitSum sim.Time
}

// NewWorld creates a world with one rank per node in nodes.
func NewWorld(fab *network.Fabric, nodes []topology.NodeID, env Env) *World {
	w := &World{
		fab:  fab,
		env:  env,
		Done: sim.NewSignal(),
	}
	w.ranks = make([]*Rank, len(nodes))
	for i := range nodes {
		w.ranks[i] = &Rank{
			world: w,
			id:    i,
			node:  nodes[i],
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i (for post-run inspection of its profile).
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Runtime returns the wallclock from Run to the last rank finishing.
// Valid once Done has fired.
func (w *World) Runtime() sim.Time { return w.finishAt - w.startAt }

// AggregateProfile merges all rank profiles.
func (w *World) AggregateProfile() *Profile {
	p := &Profile{}
	for _, r := range w.ranks {
		p.Merge(&r.prof)
	}
	return p
}

// Run spawns every rank executing main. The world's Done signal fires when
// the last rank returns. The caller drives the kernel.
func (w *World) Run(main func(r *Rank)) {
	if w.running != 0 {
		panic("mpi: World.Run called twice")
	}
	w.startAt = w.fab.Kernel().Now()
	w.running = len(w.ranks)
	for _, r := range w.ranks {
		r := r
		w.fab.Kernel().Spawn(func(p *sim.Proc) {
			r.proc = p
			main(r)
			w.running--
			if w.running == 0 {
				w.finishAt = p.Now()
				w.Done.Fire(w.fab.Kernel())
			}
		})
	}
}

// Rank is one MPI process. All methods must be called from the rank's own
// coroutine (inside the main function passed to Run).
type Rank struct {
	world *World
	id    int
	node  topology.NodeID
	proc  *sim.Proc
	prof  Profile

	posted     []*Request  // posted receives awaiting a matching arrival
	unexpected []*envelope // arrivals awaiting a matching receive
	seq        int         // per-rank request sequence for determinism
}

// envelope describes one arrived message awaiting a matching recv.
type envelope struct {
	src, tag int
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.Size() }

// Profile returns this rank's MPI usage profile.
func (r *Rank) Profile() *Profile { return &r.prof }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Compute advances virtual time by d, accounted as non-MPI time.
func (r *Rank) Compute(d sim.Time) {
	r.proc.Sleep(d)
	r.prof.ComputeTime += d
}

// modeFor selects the routing mode for an operation: alltoall variants use
// the A2A mode, everything else the default mode.
func (r *Rank) modeFor(a2a bool) routing.Mode {
	if a2a {
		return r.world.env.A2ARoutingMode
	}
	return r.world.env.RoutingMode
}

// timed runs fn and accounts its elapsed time to the MPI call.
func (r *Rank) timed(call Call, bytes int, fn func()) {
	start := r.proc.Now()
	fn()
	r.prof.add(call, bytes, r.proc.Now()-start)
}

func (r *Rank) checkPeer(peer int) {
	if peer < 0 || peer >= r.world.Size() {
		panic(fmt.Sprintf("mpi: rank %d out of range 0..%d", peer, r.world.Size()-1))
	}
}
