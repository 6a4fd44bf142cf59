// Package core is the public façade of the reproduction: it assembles the
// topology, fabric, MPI runtime, applications, placement, background
// noise, and telemetry into single-call experiment runs.
//
// A Machine describes one system (Theta, Cori, or a test instance). Runs
// are independent and fully deterministic in their seed: each Run resets
// the machine's warm kernel and fabric in place (or builds them fresh the
// first time, or after a parameter change), which is behaviourally
// identical to building new ones but skips the construction cost that
// used to dominate ensemble wall-clock.
package core

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/autoperf"
	"repro/internal/ldms"
	"repro/internal/mpi"
	"repro/internal/network"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Machine describes one system configuration. Construct with NewMachine,
// then adjust the public fields before the first Run if needed. A Machine
// is not safe for concurrent use: parallel ensembles give each worker its
// own Machine (see internal/experiments' newMachines).
type Machine struct {
	Topo  *topology.Topology //simlint:resetsafe public configuration; Reset discards run state, not config
	Net   network.Params     //simlint:resetsafe public configuration; Reset discards run state, not config
	Route routing.Config     //simlint:resetsafe public configuration; Reset discards run state, not config

	// Warm-reuse state: the kernel/fabric pair from the previous run,
	// reset in place for the next one while the public configuration
	// stays unchanged (the warm* copies detect edits between runs and
	// force a rebuild). Fabric construction is half the allocation
	// volume of an ensemble run, so reuse is what makes per-worker
	// machines cheap enough to replay hundreds of seeds.
	k         *sim.Kernel
	fab       *network.Fabric
	warmTopo  *topology.Topology //simlint:resetsafe unreachable once k is nil: fabric() rebuilds before reading it
	warmNet   network.Params     //simlint:resetsafe unreachable once k is nil: fabric() rebuilds before reading it
	warmRoute routing.Config     //simlint:resetsafe unreachable once k is nil: fabric() rebuilds before reading it

	// Lifetime reuse counters (see ReuseStats): how often fabric() took
	// the warm rewind path versus building fresh. Monotonic — Reset
	// forces the next build cold but does not rewind history.
	warmReuses uint64 //simlint:resetsafe observability counter, deliberately monotonic
	coldBuilds uint64 //simlint:resetsafe observability counter, deliberately monotonic
}

// fabric returns the kernel/fabric pair for one run: the machine's warm
// pair rewound in place when it exists and the configuration still
// matches, a fresh build otherwise. A previous run that failed mid-flight
// (live procs parked, events queued) also forces a rebuild — Reset's
// behavioural-identity guarantee only holds from a drained state.
func (m *Machine) fabric(seed int64) (*sim.Kernel, *network.Fabric) {
	if m.warm() {
		m.k.Reset()
		m.fab.Reset(seed)
		m.warmReuses++
		return m.k, m.fab
	}
	m.k = sim.NewKernel()
	m.fab = network.New(m.k, m.Topo, m.Net, m.Route, seed)
	m.warmTopo, m.warmNet, m.warmRoute = m.Topo, m.Net, m.Route
	m.coldBuilds++
	return m.k, m.fab
}

// warm reports whether the machine holds a kernel/fabric pair that can
// be rewound in place: one exists, the public configuration is unchanged
// since it was built, and its last run drained (no live procs, no queued
// events).
func (m *Machine) warm() bool {
	return m.k != nil && m.warmTopo == m.Topo && m.warmNet == m.Net &&
		m.warmRoute == m.Route && m.k.LiveProcs() == 0 && m.k.Pending() == 0
}

// ReuseStats reports how many runs rewound the warm kernel/fabric pair
// in place versus constructing fresh ones, over the machine's lifetime.
// The split is pure observability — warm and cold runs are behaviourally
// identical (the reset-equivalence tests) — but it is what lets a
// long-lived service prove its pool is actually amortizing construction.
func (m *Machine) ReuseStats() (warmReuses, coldBuilds uint64) {
	return m.warmReuses, m.coldBuilds
}

// Prewarm builds the machine's kernel/fabric pair ahead of the first Run
// so that run takes the warm rewind path instead of paying construction
// (half the allocation volume of a run) inside its latency budget. A
// no-op when a matching warm pair already exists. Results are unaffected
// either way — that is the reset-equivalence guarantee — so callers use
// this purely to move cost off the first request. The construction counts
// as a cold build in ReuseStats (it is one; it just happens early).
func (m *Machine) Prewarm() {
	if !m.warm() {
		m.fabric(0)
	}
}

// Reset discards the machine's warm kernel/fabric pair, forcing the next
// Run to construct fresh ones. Runs never need this — stale pairs are
// detected and rebuilt automatically — but tests comparing warm against
// cold behaviour use it as the explicit cold path.
func (m *Machine) Reset() {
	m.k = nil
	m.fab = nil
}

// NewMachine builds the topology for cfg with default fabric parameters.
func NewMachine(cfg topology.Config) (*Machine, error) {
	topo, err := topology.Build(cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{
		Topo:  topo,
		Net:   network.DefaultParams(),
		Route: routing.DefaultConfig(),
	}, nil
}

// Theta returns the ALCF Theta machine.
func Theta() (*Machine, error) { return NewMachine(topology.ThetaConfig()) }

// Cori returns the NERSC Cori machine.
func Cori() (*Machine, error) { return NewMachine(topology.CoriConfig()) }

// JobSpec describes one instrumented application job.
type JobSpec struct {
	App       apps.App
	Cfg       apps.Config
	Nodes     int
	Placement placement.Policy
	// ClusterGroups, when positive, overrides Placement with a
	// fragmented allocation drawn from about that many dragonfly groups
	// (production schedulers land jobs anywhere between 1 group and the
	// whole machine — the x-axis of the paper's Figs. 3-4).
	ClusterGroups int
	// Env carries the job's routing modes (the per-application setting
	// the paper's production experiments vary).
	Env mpi.Env
}

// BackgroundSpec describes the synthetic production noise filling the rest
// of the machine during a run.
type BackgroundSpec struct {
	// TargetUtilization is the fraction of the machine's remaining
	// nodes kept busy with noise jobs.
	TargetUtilization float64
	// Classes drives background traffic intensity.
	Classes []workload.TrafficClass
	// Env is the routing configuration background jobs use — AD0 in the
	// paper's "before" era, AD3 after the facilities changed defaults.
	Env mpi.Env
}

// DefaultBackground matches the production conditions of the paper's
// Section IV experiments: a busy machine running with the system-default
// routing.
func DefaultBackground() *BackgroundSpec {
	return &BackgroundSpec{
		TargetUtilization: 0.75,
		Classes:           workload.DefaultTrafficClasses(),
		Env:               mpi.DefaultEnv(),
	}
}

// RunOpts configures one Run.
type RunOpts struct {
	Seed int64
	// Background fills the rest of the machine with noise jobs; nil
	// runs the instrumented jobs in isolation.
	Background *BackgroundSpec
	// Warmup delays the instrumented jobs so background noise is
	// established first.
	Warmup sim.Time
}

// JobResult is the outcome of one instrumented job.
type JobResult struct {
	App           string
	Nodes         []topology.NodeID
	GroupsSpanned int
	Runtime       sim.Time
	Report        *autoperf.Report
	// MinimalPkts / NonMinimalPkts count this job's own adaptive routing
	// decisions.
	MinimalPkts    uint64
	NonMinimalPkts uint64
	// MeanTransit is the mean network transit of the job's own packets.
	MeanTransit sim.Time
}

// RunResult is the outcome of one Run.
type RunResult struct {
	Jobs []JobResult
	// Global holds the whole-system class totals over the run.
	Global network.ClassTotals
	// GlobalCounters is the run's full per-tile counter state. Every run
	// starts from zeroed counters (a fresh fabric, or Fabric.Reset), so
	// this is exactly what the run itself counted.
	GlobalCounters *network.Counters
	// Fabric-level stats.
	PacketsSent, PacketsDelivered uint64
	EventsExecuted                uint64
	// EventDigest is the kernel's event-stream digest
	// (sim.KernelStats.Digest): equal digests mean the run fired the
	// same events in the same order. No report or response renders it.
	EventDigest uint64
	// Mean network transit by route class, diagnostics for the routing
	// mechanism (microseconds; counts in thousands).
	MinTransitUS, NonMinTransitUS float64
	MinCountK, NonMinCountK       uint64
	// Pool reports the fabric's packet-arena activity: Arena is the
	// high-water mark of simultaneously live packets, and Recycled/
	// Allocated shows how completely the zero-allocation hot path reused
	// packets instead of growing the heap.
	Pool network.PoolStats
}

// Run executes the instrumented jobs (simultaneously) with optional
// background noise, on the machine's warm fabric (rewound in place; see
// fabric). It blocks until the virtual machine fully drains and returns
// per-job results plus global telemetry.
func (m *Machine) Run(specs []JobSpec, opts RunOpts) (*RunResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no jobs to run")
	}
	k, fab := m.fabric(opts.Seed)
	alloc := placement.NewAllocator(m.Topo)
	rng := newRNG(opts.Seed)

	// Allocate instrumented jobs first so they get their requested
	// placement even on a crowded machine.
	type liveJob struct {
		spec  JobSpec
		nodes []topology.NodeID
		world *mpi.World
		coll  *autoperf.Collector
	}
	jobs := make([]*liveJob, len(specs))
	for i, spec := range specs {
		if spec.Nodes <= 0 {
			return nil, fmt.Errorf("core: job %d has %d nodes", i, spec.Nodes)
		}
		var nodes []topology.NodeID
		var err error
		if spec.ClusterGroups > 0 {
			nodes, err = alloc.AllocClustered(spec.Nodes, spec.ClusterGroups, rng)
		} else {
			nodes, err = alloc.Alloc(spec.Nodes, spec.Placement, rng)
		}
		if err != nil {
			return nil, fmt.Errorf("core: job %d: %w", i, err)
		}
		jobs[i] = &liveJob{spec: spec, nodes: nodes}
	}

	cancelNoise := sim.NewSignal()
	if opts.Background != nil {
		startBackground(fab, alloc, *opts.Background, cancelNoise, opts.Seed)
	}

	// Start the instrumented jobs after warmup.
	k.SpawnAt(opts.Warmup, func(*sim.Proc) {
		for _, j := range jobs {
			j := j
			j.coll = autoperf.Attach(fab, j.nodes)
			baseCfg := j.spec.Cfg
			if baseCfg.Seed == 0 {
				baseCfg.Seed = opts.Seed
			}
			j.world = mpi.NewWorld(fab, j.nodes, j.spec.Env)
			j.world.Run(j.spec.App.Main(baseCfg))
		}
		// Watcher: when every instrumented job completes, stop the
		// noise so the kernel can drain.
		k.Spawn(func(p *sim.Proc) {
			for _, j := range jobs {
				p.Wait(j.world.Done)
			}
			cancelNoise.Fire(k)
		})
	})

	k.Run()

	res := &RunResult{
		GlobalCounters:   fab.Counters().Snapshot(),
		PacketsSent:      fab.PacketsSent,
		PacketsDelivered: fab.PacketsDelivered,
		EventsExecuted:   k.Stats().EventsExecuted,
		EventDigest:      k.Stats().Digest,
		Pool:             fab.PoolStats(),
	}
	if fab.MinimalCount > 0 {
		res.MinTransitUS = (fab.MinimalTransit / sim.Time(fab.MinimalCount)).Seconds() * 1e6
		res.MinCountK = fab.MinimalCount / 1000
	}
	if fab.NonMinimalCount > 0 {
		res.NonMinTransitUS = (fab.NonMinimalTransit / sim.Time(fab.NonMinimalCount)).Seconds() * 1e6
		res.NonMinCountK = fab.NonMinimalCount / 1000
	}
	res.Global = res.GlobalCounters.Aggregate(nil)
	for _, j := range jobs {
		if !j.world.Done.Fired() {
			return nil, fmt.Errorf("core: job %s did not complete", j.spec.App.Name())
		}
		res.Jobs = append(res.Jobs, JobResult{
			App:            j.spec.App.Name(),
			Nodes:          j.nodes,
			GroupsSpanned:  placement.GroupsSpanned(m.Topo, j.nodes),
			Runtime:        j.world.Runtime(),
			Report:         j.coll.Finish(j.spec.App.Name(), j.world),
			MinimalPkts:    j.world.MinimalPkts,
			NonMinimalPkts: j.world.NonMinimalPkts,
			MeanTransit:    meanTransit(j.world),
		})
	}
	return res, nil
}

// meanTransit averages a world's per-packet network transit.
func meanTransit(w *mpi.World) sim.Time {
	n := w.MinimalPkts + w.NonMinimalPkts
	if n == 0 {
		return 0
	}
	return w.TransitSum / sim.Time(n)
}

// RunOne is the single-job convenience wrapper.
func (m *Machine) RunOne(spec JobSpec, opts RunOpts) (*JobResult, *RunResult, error) {
	res, err := m.Run([]JobSpec{spec}, opts)
	if err != nil {
		return nil, nil, err
	}
	return &res.Jobs[0], res, nil
}

// CampaignResult is the outcome of a background-only production campaign.
type CampaignResult struct {
	LDMS     *ldms.Daemon
	Global   network.ClassTotals
	Duration sim.Time
}

// RunCampaign emulates a production window: background jobs only, sampled
// by LDMS for `duration` of virtual time. Used for the paper's
// before/after default-routing comparison (Figs. 13-14).
func (m *Machine) RunCampaign(duration sim.Time, bg BackgroundSpec, ldmsOpts ldms.Options, seed int64) (*CampaignResult, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("core: campaign duration must be positive")
	}
	k, fab := m.fabric(seed)
	alloc := placement.NewAllocator(m.Topo)

	daemon := ldms.Start(fab, ldmsOpts)
	cancel := sim.NewSignal()
	startBackground(fab, alloc, bg, cancel, seed)
	k.SpawnAt(duration, func(*sim.Proc) {
		cancel.Fire(k)
		daemon.Stop()
	})
	k.Run()
	return &CampaignResult{
		LDMS:     daemon,
		Global:   fab.Counters().Aggregate(nil),
		Duration: duration,
	}, nil
}
