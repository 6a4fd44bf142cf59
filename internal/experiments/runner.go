package experiments

import (
	"context"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/autoperf"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
)

// machinePool hands each parallel worker its own Machine. A Machine
// mutates during Run — it rewinds and reuses a warm kernel/fabric pair
// across the runs assigned to its slot (see core.Machine) — so
// one-machine-per-worker is what keeps the no-shared-mutable-state
// invariant between workers trivially auditable. The reuse is also the
// point: each slot pays fabric construction once, not once per run.
type machinePool struct {
	machines []*core.Machine
}

// newMachinePool builds `workers` identical machines from cfg.
func newMachinePool(cfg topology.Config, workers int) (*machinePool, error) {
	if workers < 1 {
		workers = 1
	}
	mp := &machinePool{machines: make([]*core.Machine, workers)}
	for i := range mp.machines {
		m, err := core.NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		mp.machines[i] = m
	}
	return mp, nil
}

// workers returns the pool's fan-out.
func (mp *machinePool) workers() int { return len(mp.machines) }

// machine returns the Machine owned by one worker slot.
func (mp *machinePool) machine(worker int) *core.Machine { return mp.machines[worker] }

// apply mutates every worker's machine identically (ablation sweeps).
func (mp *machinePool) apply(f func(m *core.Machine)) {
	for _, m := range mp.machines {
		f(m)
	}
}

// runStream builds the explicit per-run random stream for one seed. Every
// randomized choice outside a Machine.Run derives from such a stream —
// never from shared or package-level state — so runs stay independent and
// can execute on any worker in any order without changing their draws.
func runStream(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*31 + salt))
}

// Stream salts keep the per-seed streams of different concerns apart.
const (
	// saltGroupSpread drives the placement-spread draw of production runs.
	saltGroupSpread = 7
	// saltJobMix drives the Fig. 1 synthetic job-mix campaign.
	saltJobMix = 13
)

// Sample is one production-style run observation: the unit of the paper's
// per-application statistics.
type Sample struct {
	App        string
	Mode       routing.Mode
	Seed       int64
	Nodes      int
	Groups     int // dragonfly groups spanned by the placement
	RuntimeSec float64
	// Report is the run's full AutoPerf output. Campaign pipelines hold
	// it only inside their streaming fold (its LocalTileRatios slices
	// scale with router count); retained samples carry nil here and keep
	// the fixed-size Reduced digest instead. Isolated/single-run paths
	// still populate it.
	Report *autoperf.Report
	// Reduced is the fixed-size digest built on the worker right after
	// the run completes; every Sample carries one. It survives compaction
	// and is what long-lived consumers (figures, tables, the simd
	// service) read.
	Reduced *autoperf.Reduced
	// MinPkts / NonMinPkts count the job's own adaptive routing decisions,
	// and MeanTransitSec is the mean network transit of its packets —
	// per-run routing diagnostics the simd service aggregates into its
	// response.
	MinPkts        uint64
	NonMinPkts     uint64
	MeanTransitSec float64
	// Events / Packets are the run's whole-machine kernel event and
	// delivered-packet totals (background traffic included). Their ratio
	// is the events-per-packet figure the simd /metrics page exports —
	// the deterministic cost proxy the link-fusion work optimizes.
	Events  uint64
	Packets uint64
}

// MPISec returns the per-rank average MPI time in seconds.
func (s Sample) MPISec() float64 {
	if s.Reduced.Ranks == 0 {
		return 0
	}
	return s.Reduced.MPITime.Seconds() / float64(s.Reduced.Ranks)
}

// Compact returns the sample with its full Report dropped; the Reduced
// digest (always present on campaign samples) carries everything a
// retained sample needs. Folds that keep samples beyond the streaming
// window must keep this, not the original.
func (s Sample) Compact() Sample {
	s.Report = nil
	return s
}

// jobSpec assembles the JobSpec for one production run. clusterGroups <= 0
// means use the explicit placement policy instead.
func (p Profile) jobSpec(app apps.App, nodes int, mode routing.Mode,
	policy placement.Policy, clusterGroups int, seed int64) core.JobSpec {
	return core.JobSpec{
		App: app,
		Cfg: apps.Config{
			Iterations: p.iterationsFor(app.Name()),
			Scale:      p.scaleFor(app.Name()),
			Seed:       seed,
		},
		Nodes:         nodes,
		Placement:     policy,
		ClusterGroups: clusterGroups,
		Env:           mpi.UniformEnv(mode),
	}
}

// production is the streaming core of every production campaign: p.Runs
// runs per mode, fanned out over the pool's workers. Run i of every mode
// shares a seed, so the placement (a fragmented allocation spanning a
// seed-chosen number of groups) and the background noise are identical
// across modes — only the instrumented job's routing differs, exactly
// the paper's production methodology (the rest of the system stays on
// the default AD0).
//
// Each (run, mode) task executes on its worker's own Machine and its
// full Sample — Report attached, Reduced digest already built — is
// handed to fold in strict (run, mode) order, exactly the order the
// sequential nested loop would produce. The Report reference is dropped
// as soon as fold returns, so with parallel.ReduceContext's bounded
// reordering window the campaign retains O(workers) Reports at any
// moment, no matter how many runs it has. fold must not keep s.Report
// (or s itself) past its return; retain s.Compact() instead.
func production(ctx context.Context, mp *machinePool, p Profile,
	app apps.App, nodes int, modes []routing.Mode, bg *core.BackgroundSpec,
	seedBase int64, fold func(s *Sample)) error {

	maxGroups := mp.machine(0).Topo.Cfg.Groups
	return parallel.ReduceContext(ctx, mp.workers(), p.Runs*len(modes),
		func(worker, idx int) (Sample, error) {
			i, mode := idx/len(modes), modes[idx%len(modes)]
			seed := seedBase + int64(i)
			// Seed-derived target spread: covers 1..maxGroups over the
			// campaign, like the paper's months of varying allocations.
			// The stream is rebuilt per task, so tasks that share a run
			// seed draw the same spread on any worker.
			gr := 1 + runStream(seed, saltGroupSpread).Intn(maxGroups)
			spec := p.jobSpec(app, nodes, mode, placement.Dispersed, gr, seed)
			job, res, err := mp.machine(worker).RunOne(spec, core.RunOpts{
				Seed:       seed,
				Background: bg,
				Warmup:     p.Warmup,
			})
			if err != nil {
				return Sample{}, err
			}
			return Sample{
				App: app.Name(), Mode: mode, Seed: seed,
				Nodes: nodes, Groups: job.GroupsSpanned,
				RuntimeSec: job.Runtime.Seconds(),
				Report:     job.Report,
				Reduced:    job.Report.Reduce(),
				MinPkts:    job.MinimalPkts, NonMinPkts: job.NonMinimalPkts,
				MeanTransitSec: job.MeanTransit.Seconds(),
				Events:         res.EventsExecuted,
				Packets:        res.PacketsDelivered,
			}, nil
		},
		func(_ int, s Sample) { fold(&s) })
}

// SamplesOn runs the production-style campaign on caller-owned machines —
// the entry point the simd service layer drives. The machines must share
// one configuration; len(machines) sets the fan-out, and each machine is
// rewound warm across the runs assigned to its slot exactly as the batch
// pool does, so results are byte-identical to a batch campaign with the
// same arguments. Samples come back compact, in seed order: the full
// per-run autoperf.Report is digested into Sample.Reduced on the worker
// and dropped, so a long-lived service process retains fixed-size
// samples. Cancelling ctx stops undispatched runs and returns ctx's
// error; runs already simulating complete first and their samples are
// kept (failed tasks contribute nothing, so callers that need
// all-or-nothing semantics discard the slice when err != nil).
func (p Profile) SamplesOn(ctx context.Context, machines []*core.Machine,
	app apps.App, nodes int, modes []routing.Mode, bg *core.BackgroundSpec,
	seedBase int64) ([]Sample, error) {

	out := make([]Sample, 0, p.Runs*len(modes))
	err := production(ctx, &machinePool{machines: machines}, p, app, nodes,
		modes, bg, seedBase, func(s *Sample) { out = append(out, s.Compact()) })
	return out, err
}

// ProductionEnsemble is the exported entry to one app's production
// campaign under the default background: p.Runs seeded runs per mode,
// fanned out over p.Workers workers and merged in seed order. It is what
// the root-level ensemble benchmarks and the determinism regression
// tests drive.
func ProductionEnsemble(p Profile, app apps.App, nodes int,
	modes []routing.Mode, seedBase int64) ([]Sample, error) {

	mp, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	return p.SamplesOn(context.Background(), mp.machines, app, nodes, modes,
		core.DefaultBackground(), seedBase)
}

// isolatedSample runs one app alone on an otherwise idle machine.
func isolatedSample(m *core.Machine, p Profile, app apps.App, nodes int,
	mode routing.Mode, policy placement.Policy, seed int64) (Sample, error) {

	spec := p.jobSpec(app, nodes, mode, policy, 0, seed)
	job, _, err := m.RunOne(spec, core.RunOpts{Seed: seed})
	if err != nil {
		return Sample{}, err
	}
	return Sample{
		App: app.Name(), Mode: mode, Seed: seed,
		Nodes: nodes, Groups: job.GroupsSpanned,
		RuntimeSec: job.Runtime.Seconds(),
		Report:     job.Report,
		Reduced:    job.Report.Reduce(),
	}, nil
}

// ensembleRun launches `count` simultaneous copies of the same app (the
// paper's controlled reservation experiments) and returns the RunResult
// with per-job results plus the run's global counters.
func ensembleRun(m *core.Machine, p Profile, app apps.App, count, nodes int,
	mode routing.Mode, policy placement.Policy, seed int64) (*core.RunResult, error) {

	specs := make([]core.JobSpec, count)
	for i := range specs {
		specs[i] = p.jobSpec(app, nodes, mode, policy, 0, seed+int64(i))
	}
	return m.Run(specs, core.RunOpts{Seed: seed})
}

// aggAt returns m[k1][k2], creating the inner map and the aggregate on
// first use: the get-or-create step of the keyed tile-ratio folds.
func aggAt[K1, K2 comparable](m map[K1]map[K2]*stats.Agg, k1 K1, k2 K2) *stats.Agg {
	inner := m[k1]
	if inner == nil {
		inner = map[K2]*stats.Agg{}
		m[k1] = inner
	}
	agg := inner[k2]
	if agg == nil {
		agg = stats.NewAgg()
		inner[k2] = agg
	}
	return agg
}

// appendAt appends x to m[k1][k2], creating the inner map on first use:
// aggAt's counterpart for one-value-per-run samples.
func appendAt[K1, K2 comparable](m map[K1]map[K2][]float64, k1 K1, k2 K2, x float64) {
	inner := m[k1]
	if inner == nil {
		inner = map[K2][]float64{}
		m[k1] = inner
	}
	inner[k2] = append(inner[k2], x)
}

// networkTileRatios pools a report's per-tile stalls-to-flits ratios over
// the network tile classes. Requires the full Report — call it inside a
// streaming fold, before the sample is compacted.
func networkTileRatios(r *autoperf.Report) []float64 {
	n := 0
	for _, class := range topology.NetworkTileClasses {
		n += len(r.LocalTileRatios[class])
	}
	out := make([]float64, 0, n)
	for _, class := range topology.NetworkTileClasses {
		out = append(out, r.LocalTileRatios[class]...)
	}
	return out
}
