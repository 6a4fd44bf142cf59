package core

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/ldms"
	"repro/internal/mpi"
	"repro/internal/network"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

func testMachine(t testing.TB) *Machine {
	t.Helper()
	m, err := NewMachine(topology.TestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func milcSpec(nodes int, mode routing.Mode) JobSpec {
	return JobSpec{
		App:       apps.MILC{},
		Cfg:       apps.Config{Iterations: 2, Scale: 0.05, Seed: 3},
		Nodes:     nodes,
		Placement: placement.Compact,
		Env:       mpi.UniformEnv(mode),
	}
}

func TestRunIsolated(t *testing.T) {
	m := testMachine(t)
	job, res, err := m.RunOne(milcSpec(8, routing.AD0), RunOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if job.Runtime <= 0 {
		t.Fatalf("runtime = %v", job.Runtime)
	}
	if job.Report == nil || job.Report.Profile.MPITime() <= 0 {
		t.Fatal("missing autoperf report")
	}
	if job.GroupsSpanned < 1 {
		t.Fatal("groups spanned")
	}
	if res.Global.TotalFlits() == 0 {
		t.Fatal("no global flits")
	}
	if res.PacketsDelivered < res.PacketsSent {
		t.Fatalf("delivered %d < sent %d", res.PacketsDelivered, res.PacketsSent)
	}
	// Pool telemetry plumbed up from the fabric: the run recycles packets
	// (steady state reuses the arena) and drains completely (every arena
	// slot back on the free list).
	if res.Pool.Recycled == 0 {
		t.Fatalf("pool never recycled: %+v", res.Pool)
	}
	if res.Pool.Free != res.Pool.Arena {
		t.Fatalf("pool leaked %d packets: %+v", res.Pool.Arena-res.Pool.Free, res.Pool)
	}
}

func TestRunDeterministic(t *testing.T) {
	m := testMachine(t)
	run := func() (sim.Time, uint64) {
		job, res, err := m.RunOne(milcSpec(8, routing.AD3), RunOpts{Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return job.Runtime, res.Global.TotalFlits()
	}
	r1, f1 := run()
	r2, f2 := run()
	if r1 != r2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", r1, f1, r2, f2)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	m := testMachine(t)
	j1, _, err := m.RunOne(JobSpec{
		App: apps.MILC{}, Cfg: apps.Config{Iterations: 2, Scale: 0.05, Seed: 3},
		Nodes: 8, Placement: placement.Dispersed, Env: mpi.UniformEnv(routing.AD0),
	}, RunOpts{Seed: 1, Background: DefaultBackground()})
	if err != nil {
		t.Fatal(err)
	}
	j2, _, err := m.RunOne(JobSpec{
		App: apps.MILC{}, Cfg: apps.Config{Iterations: 2, Scale: 0.05, Seed: 3},
		Nodes: 8, Placement: placement.Dispersed, Env: mpi.UniformEnv(routing.AD0),
	}, RunOpts{Seed: 2, Background: DefaultBackground()})
	if err != nil {
		t.Fatal(err)
	}
	if j1.Runtime == j2.Runtime {
		t.Log("note: identical runtimes across seeds (possible but unlikely)")
	}
}

func TestRunWithBackground(t *testing.T) {
	m := testMachine(t)
	iso, _, err := m.RunOne(milcSpec(8, routing.AD0), RunOpts{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	noisy, res, err := m.RunOne(milcSpec(8, routing.AD0), RunOpts{
		Seed:       5,
		Background: DefaultBackground(),
		Warmup:     10 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Runtime < iso.Runtime {
		t.Errorf("background noise made the job faster: %v < %v", noisy.Runtime, iso.Runtime)
	}
	// Background traffic must show up in global counters beyond the
	// job's own.
	if res.Global.TotalFlits() == 0 {
		t.Fatal("no flits with background running")
	}
}

func TestRunEnsemble(t *testing.T) {
	m := testMachine(t)
	specs := []JobSpec{
		milcSpec(8, routing.AD3),
		milcSpec(8, routing.AD3),
		milcSpec(8, routing.AD3),
	}
	res, err := m.Run(specs, RunOpts{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	for i, j := range res.Jobs {
		if j.Runtime <= 0 {
			t.Fatalf("job %d runtime %v", i, j.Runtime)
		}
	}
	// Distinct node sets.
	seen := map[topology.NodeID]bool{}
	for _, j := range res.Jobs {
		for _, n := range j.Nodes {
			if seen[n] {
				t.Fatal("overlapping ensemble allocations")
			}
			seen[n] = true
		}
	}
}

func TestRunWithLDMS(t *testing.T) {
	m := testMachine(t)
	res, err := m.RunCampaign(10*sim.Millisecond, *DefaultBackground(),
		ldms.Options{Period: 2 * sim.Millisecond, RecordRouterRatios: true, RecordNICLatency: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.LDMS == nil || len(res.LDMS.Samples()) == 0 {
		t.Fatal("no LDMS samples")
	}
	if res.LDMS.RouterRatioAgg().Count() == 0 {
		t.Fatal("no router ratios recorded")
	}
	if res.LDMS.NICLatencyAgg().Count() == 0 {
		t.Fatal("no NIC latency samples recorded")
	}
	if sampleTotals(res.LDMS.Samples()).TotalFlits() == 0 {
		t.Fatal("LDMS totals empty")
	}
}

// sampleTotals sums class totals across LDMS windows.
func sampleTotals(samples []ldms.Sample) network.ClassTotals {
	var ct network.ClassTotals
	for _, s := range samples {
		for c := range ct.Flits {
			ct.Flits[c] += s.Totals.Flits[c]
			ct.Stalls[c] += s.Totals.Stalls[c]
		}
	}
	return ct
}

func TestRunErrors(t *testing.T) {
	m := testMachine(t)
	if _, err := m.Run(nil, RunOpts{}); err == nil {
		t.Error("empty run should fail")
	}
	if _, _, err := m.RunOne(milcSpec(0, routing.AD0), RunOpts{}); err == nil {
		t.Error("zero-node job should fail")
	}
	if _, _, err := m.RunOne(milcSpec(10_000, routing.AD0), RunOpts{}); err == nil {
		t.Error("oversized job should fail")
	}
}

func TestRunCampaign(t *testing.T) {
	m := testMachine(t)
	bg := DefaultBackground()
	res, err := m.RunCampaign(40*sim.Millisecond, *bg,
		ldms.Options{Period: 10 * sim.Millisecond, RecordRouterRatios: true}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Global.TotalFlits() == 0 {
		t.Fatal("campaign produced no traffic")
	}
	if len(res.LDMS.Samples()) < 3 {
		t.Fatalf("campaign samples = %d", len(res.LDMS.Samples()))
	}
}

func TestCampaignModeChangesCongestion(t *testing.T) {
	// The headline system-level claim (Fig. 13): an all-AD3 production
	// era has a lower stalls-to-flits ratio than an all-AD0 era.
	m := testMachine(t)
	run := func(mode routing.Mode) float64 {
		bg := DefaultBackground()
		bg.Env = mpi.UniformEnv(mode)
		res, err := m.RunCampaign(60*sim.Millisecond, *bg,
			ldms.Options{Period: 20 * sim.Millisecond}, 21)
		if err != nil {
			t.Fatal(err)
		}
		tot := res.Global
		if tot.TotalFlits() == 0 {
			t.Fatal("no traffic")
		}
		return tot.TotalStalls() / float64(tot.TotalFlits())
	}
	ad0 := run(routing.AD0)
	ad3 := run(routing.AD3)
	t.Logf("campaign stalls/flits: AD0=%.4f AD3=%.4f", ad0, ad3)
	if ad3 > ad0*1.15 {
		t.Errorf("AD3 campaign ratio %.4f should not exceed AD0 %.4f", ad3, ad0)
	}
}

// TestLDMSSurvivesWarmReuse pins that CampaignResult.LDMS keeps
// reporting the originating campaign's counters after the warm
// kernel/fabric pair is rewound and reused for another campaign. Every
// Sample is materialized at tick time and Daemon.Stop drops the fabric
// reference, so re-reading the first result after the second campaign
// must be byte-identical to reading it before.
func TestLDMSSurvivesWarmReuse(t *testing.T) {
	m := testMachine(t)
	opts := ldms.Options{Period: 2 * sim.Millisecond, RecordRouterRatios: true, RecordNICLatency: true}
	campaign := func(mode routing.Mode) *CampaignResult {
		t.Helper()
		bg := DefaultBackground()
		bg.Env = mpi.UniformEnv(mode)
		res, err := m.RunCampaign(10*sim.Millisecond, *bg, opts, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.LDMS.Samples()) == 0 {
			t.Fatalf("%v campaign recorded no LDMS samples", mode)
		}
		return res
	}
	res1 := campaign(routing.AD0)
	samples1 := deepCopySamples(res1.LDMS.Samples())
	totals1 := sampleTotals(samples1)
	ratios1 := aggReadout(res1.LDMS.RouterRatioAgg())

	// Second campaign on the same machine: fabric() must take the warm
	// path (same config, drained kernel), mutating the counters res1's
	// daemon sampled from. A different background routing mode makes the
	// traffic genuinely differ.
	k1 := m.k
	campaign(routing.AD3)
	if m.k != k1 {
		t.Fatal("second campaign rebuilt instead of reusing the warm kernel")
	}

	// Re-read the FIRST campaign's daemon after the reuse.
	after := res1.LDMS.Samples()
	if got := sampleTotals(after); got != totals1 {
		t.Fatalf("warm reuse changed first campaign's LDMS totals:\n before %+v\n after  %+v", totals1, got)
	}
	if len(after) != len(samples1) {
		t.Fatalf("warm reuse changed first campaign's sample count: %d -> %d", len(samples1), len(after))
	}
	for i := range after {
		if !sampleEqual(after[i], samples1[i]) {
			t.Fatalf("warm reuse changed first campaign's sample %d:\n before %+v\n after  %+v", i, samples1[i], after[i])
		}
	}
	if got := aggReadout(res1.LDMS.RouterRatioAgg()); !reflect.DeepEqual(got, ratios1) {
		t.Fatal("warm reuse changed first campaign's router-ratio aggregate")
	}
}

// aggReadout captures every read an aggregate offers (count, sum, mean
// and a spread of percentiles), so comparing two readouts detects any
// change to its state.
func aggReadout(a *stats.Agg) []float64 {
	return append([]float64{float64(a.Count()), a.Sum(), a.Mean()},
		a.Percentiles([]float64{0, 1, 5, 25, 50, 75, 95, 99, 100})...)
}

// deepCopySamples clones samples including their slice payloads, so later
// comparison detects in-place mutation rather than comparing aliases.
func deepCopySamples(in []ldms.Sample) []ldms.Sample {
	out := make([]ldms.Sample, len(in))
	for i, s := range in {
		out[i] = s
		out[i].RouterRatios = append([]float64(nil), s.RouterRatios...)
		out[i].NICLatency = append([]float64(nil), s.NICLatency...)
	}
	return out
}

func sampleEqual(a, b ldms.Sample) bool {
	return a.At == b.At && a.Totals == b.Totals &&
		floatsEqual(a.RouterRatios, b.RouterRatios) &&
		floatsEqual(a.NICLatency, b.NICLatency)
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
