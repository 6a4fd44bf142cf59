package core

import (
	"math/rand"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/network"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// newRNG builds the run-level random stream.
func newRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))
}

// bgCheckPeriod is how often the background controller tops up noise jobs.
const bgCheckPeriod = 20 * sim.Millisecond

// startBackground launches the noise controller: a proc that wakes every
// bgCheckPeriod and keeps the machine's free capacity filled with noise
// jobs sampled from Theta's job mix (workload.ThetaMix) until cancel
// fires. Completed jobs release their nodes, and the controller
// backfills, emulating a production scheduler.
func startBackground(fab *network.Fabric, alloc *placement.Allocator,
	spec BackgroundSpec, cancel *sim.Signal, seed int64) {

	if spec.TargetUtilization <= 0 {
		return
	}
	if spec.TargetUtilization > 1 {
		spec.TargetUtilization = 1
	}
	if spec.Classes == nil {
		spec.Classes = workload.DefaultTrafficClasses()
	}
	zeroEnv := mpi.Env{}
	if spec.Env == zeroEnv {
		spec.Env = mpi.DefaultEnv()
	}

	k := fab.Kernel()
	rng := rand.New(rand.NewSource(seed ^ 0x6261636b)) // "back"
	capacity := alloc.FreeNodes()
	maxFree := int(float64(capacity) * (1 - spec.TargetUtilization))
	jobSeq := int64(0)
	mix := workload.ThetaMix()

	k.Spawn(func(p *sim.Proc) {
		for !cancel.Fired() {
			for alloc.FreeNodes() > maxFree {
				nodes, dur := mix.SampleJob(rng)
				if free := alloc.FreeNodes(); nodes > free {
					nodes = free
				}
				if nodes < 2 {
					break
				}
				policy := placement.Dispersed
				if rng.Intn(10) < 3 {
					policy = placement.Compact
				}
				alloced, err := alloc.Alloc(nodes, policy, rng)
				if err != nil {
					break
				}
				class := workload.SampleTraffic(spec.Classes, rng)
				jobSeq++
				noise := apps.Noise{
					Pattern:  class.Pattern,
					MsgBytes: class.MsgBytes,
					Gap:      class.Gap,
					Duration: dur,
					Cancel:   cancel,
				}
				w := mpi.NewWorld(fab, alloced, spec.Env)
				w.Run(noise.Main(apps.Config{Iterations: 1, Scale: 1, Seed: seed + jobSeq}))
				// Release nodes when the job drains.
				releaseOnDone(k, w, alloc, alloced)
			}
			p.Sleep(bgCheckPeriod)
		}
	})
}

// releaseOnDone frees a background job's nodes once its world completes.
func releaseOnDone(k *sim.Kernel, w *mpi.World, alloc *placement.Allocator, nodes []topology.NodeID) {
	k.Spawn(func(p *sim.Proc) {
		p.Wait(w.Done)
		alloc.Free(nodes)
	})
}
