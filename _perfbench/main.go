// Command perfbench is the repository's benchmark: it runs one named
// workload as a fixed op sequence, checks every op's output against a
// recorded digest, and prints every metric by name and unit, with the
// JSON summary object as the last line of standard output.
//
//	bash _perfbench/run.sh --workload whatif-idle --seed 3 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run (CPU profile, spans, exact counts, layer probes) that
// produces the per-layer metrics. See README.md beside this file.
package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

const (
	// defaultWseed and heldOutWseed are the two op-seed bases with
	// recorded digests: tune against the first, confirm on the second.
	defaultWseed = 1
	heldOutWseed = 7919
	// maxSeconds is the longest run the recorded digests cover.
	maxSeconds = 60
	// setupReps is how many times a run builds its workload; setup_s is
	// the median (one cold sample varies 3x on a small VM).
	setupReps = 21
	traceDir  = ".bench_build/trace"
)

//go:embed digests
var digestFS embed.FS

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 0, "orders the run's ops (the op set itself is fixed by --wseed and --seconds)")
	seconds := fs.Int("seconds", 30, "run length; sets the op count as ceil(seconds × nominal rate)")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	wseed := fs.Int64("wseed", defaultWseed, "seed of the first op; op i simulates wseed+i")
	record := fs.String("record", "", "record the workload's digests for both seed bases into this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *record != "" {
		return recordDigests(w, *record)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *wseed < 1 {
		return fmt.Errorf("need --seconds >= 1, --trace 0|1, --wseed >= 1")
	}
	want, err := loadDigests(w.name)
	if err != nil {
		return err
	}
	n := opCount(w, *seconds)
	seeds := opSeeds(*wseed, n, *seed)
	warm := *wseed - 1
	for _, s := range append([]int64{warm}, seeds...) {
		if _, ok := want[s]; !ok {
			return fmt.Errorf("%s: no recorded digest for op seed %d (digests cover --wseed %d and %d up to --seconds %d)",
				w.name, s, defaultWseed, heldOutWseed, maxSeconds)
		}
	}

	// One P: on a small VM, goroutine hand-offs between two vCPUs made
	// whatif-prod's run-to-run spread ~3x wider than on one (paired runs).
	// No workload uses more than one simulating goroutine at a time.
	runtime.GOMAXPROCS(1)
	r := &runner{w: w, want: want, ref: newHostRef(), res: result{Metrics: map[string]metric{}}}
	inst, err := r.setup()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	r.do(inst, warm, nil)

	host := hostContext{Workload: w.name, Seed: *seed, Wseed: *wseed, Ops: n, Seconds: *seconds}
	if *trace == 0 {
		err = r.measure(inst, seeds, &host)
	} else {
		err = r.traced(inst, seeds, &host)
	}
	if err != nil {
		return err
	}
	names := endToEndMetrics
	if *trace == 1 {
		names = perLayerMetrics()
	}
	if err := r.checkNames(names); err != nil {
		return err
	}
	r.res.Correct = r.res.Failed == 0
	return r.report(stdout, host)
}

// endToEndMetrics and perLayerMetrics are the names an untraced and a
// traced run report; BENCHMARK.json lists the same names.
var endToEndMetrics = []string{"ops_per_s", "op_p50_ms", "peak_rss_mb", "setup_s"}

func perLayerMetrics() []string {
	var out []string
	for _, b := range append(append([]string{}, layers...), runtimeBuckets...) {
		out = append(out, selfMetric(b))
	}
	return append(out, "client.self_ms_per_op",
		"runtime.alloc_mb_per_op", "runtime.mallocs_per_op", "service.warm_reuse_ratio",
		"sim.event_ns", "sim.proc_switch_ns",
		"routing.decision_ns.mini", "routing.decision_ns.theta", "routing.load_queries_per_decision",
		"network.pkt_ns.mini", "network.pkt_ns.theta", "network.events_per_pkt", "network.tail_calls_per_pkt",
		"topology.build_ms.theta", "network.fabric_build_ms.theta", "core.cold_setup_ms",
		"stats.agg_add_ns", "stats.agg_merge_us", "service.decode_us",
		"trace.op_p50_ms", "trace.untraced_op_p50_ms", "trace.overhead_ms")
}

// checkNames fails the run unless it reports exactly the listed metrics.
func (r *runner) checkNames(want []string) error {
	if len(r.res.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(r.res.Metrics), len(want))
	}
	for _, n := range want {
		if _, ok := r.res.Metrics[n]; !ok {
			return fmt.Errorf("metric %s not reported", n)
		}
	}
	return nil
}

// opCount is the fixed number of timed ops in a run of the given length.
func opCount(w workload, seconds int) int {
	return max(2, int(math.Ceil(float64(seconds)*w.rate)))
}

// opSeeds returns the run's op seeds wseed..wseed+n-1, in an order drawn
// from orderSeed: every run of a length simulates the same set.
func opSeeds(wseed int64, n int, orderSeed int64) []int64 {
	seeds := make([]int64, n)
	for i, j := range rand.New(rand.NewSource(orderSeed)).Perm(n) {
		seeds[i] = wseed + int64(j)
	}
	return seeds
}

type runner struct {
	w    workload
	want map[int64]string
	res  result
	ref  *hostRef
	// setupMS holds each setup sample; the first is the cold build.
	// setupFactor is the host factor measured during each.
	setupMS, setupFactor []float64
	lines                []string // human-readable report, printed before the summary
}

func (r *runner) set(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runner) note(format string, a ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

// setup builds the workload setupReps times and keeps the last instance.
// Each build starts after a full GC and runs with the collector paused:
// with it running, whether a collection cycle fell inside a build split
// the samples into two modes (about 50 and 95 ms on theta-full), and the
// median jumped between them from run to run.
func (r *runner) setup() (instance, error) {
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil // collectable before the next build
		}
		runtime.GC()
		old := debug.SetGCPercent(-1)
		r.ref.start()
		start := time.Now()
		var err error
		inst, err = r.w.setup()
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		factor, spent := r.ref.finish()
		debug.SetGCPercent(old)
		if err != nil {
			return nil, err
		}
		r.setupMS = append(r.setupMS, ms-spent)
		r.setupFactor = append(r.setupFactor, factor)
	}
	return inst, nil
}

// do runs one op and checks its digest, returning its wall time in ms,
// less the host reference's samples, and its host factor. A failed op
// (error, non-200, digest mismatch) is counted, not fatal.
func (r *runner) do(inst instance, seed int64, tr *tracer) (ms, factor float64) {
	r.res.Attempted++
	r.ref.start()
	start := time.Now()
	out, err := inst.op(seed, tr)
	ms = float64(time.Since(start).Nanoseconds()) / 1e6
	if tr != nil {
		tr.record(tr.current(), "op", start) // before any top-up samples
	}
	factor, spent := r.ref.finish()
	ms -= spent
	switch {
	case err != nil:
		r.res.Failed++
		r.note("op seed %d failed: %v", seed, err)
	case digest(out) != r.want[seed]:
		r.res.Failed++
		r.note("op seed %d: output digest %s, recorded %s", seed, digest(out), r.want[seed])
	}
	return ms, factor
}

// pass times the ops in order and returns each op's wall time in ms and
// its host factor.
func (r *runner) pass(inst instance, seeds []int64, tr *tracer) (ms, factor []float64) {
	ms = make([]float64, len(seeds))
	factor = make([]float64, len(seeds))
	for i, s := range seeds {
		if tr != nil {
			tr.op.Store(int64(i))
		}
		ms[i], factor[i] = r.do(inst, s, tr)
	}
	return ms, factor
}

// normalised divides each time by its host factor.
func normalised(ms, factor []float64) []float64 {
	out := make([]float64, len(ms))
	for i := range ms {
		out[i] = ms[i] / factor[i]
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// measure is the untraced run: the end-to-end metrics. Every time in
// them is divided by the host factor measured during it (hostref.go);
// the raw figures go to the host line.
func (r *runner) measure(inst instance, seeds []int64, host *hostContext) error {
	runtime.GC()
	host.begin()
	start := time.Now()
	raw, factor := r.pass(inst, seeds, nil)
	host.end(time.Since(start).Seconds())
	host.HostFactor = percentile(factor, 50)
	ms := normalised(raw, factor)
	n := float64(len(seeds))
	r.set("setup_s", "s", percentile(normalised(r.setupMS, r.setupFactor), 50)/1e3)
	r.set("ops_per_s", "1/s", n/sum(ms)*1e3)
	r.set("op_p50_ms", "ms", percentile(ms, 50))
	host.Raw = &rawFigures{OpsPerS: n / sum(raw) * 1e3, OpP50MS: percentile(raw, 50),
		SetupS: percentile(r.setupMS, 50) / 1e3}
	// A tail percentile is reported only with at least ten ops beyond it,
	// which among the workloads only whatif-idle has; the summary carries
	// the same metrics for every workload, so the tail stays in the report.
	if beyond := len(ms) - int(math.Ceil(0.9*float64(len(ms)))); beyond >= 10 {
		r.note("op_p90_ms %.4f ms (%d ops, %d beyond the p90)", percentile(ms, 90), len(ms), beyond)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MB", rss)
	return nil
}

// traced is the per-layer run. It times the first half of the op set
// untraced, then the same ops again under a CPU profile and spans, so
// the difference of the two medians is the tracing overhead.
func (r *runner) traced(inst instance, seeds []int64, host *hostContext) error {
	half := make([]int64, 0, len(seeds))
	for _, s := range seeds {
		if s < host.Wseed+int64((len(seeds)+1)/2) {
			half = append(half, s)
		}
	}
	// Allocation counts come from the untraced pass, so the profiler's
	// and the tracer's own allocations stay out of them.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	untraced, untracedF := r.pass(inst, half, nil)
	runtime.ReadMemStats(&m1)

	runtime.GC()
	c0, err := inst.counts()
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	tr := newTracer()
	host.begin()
	start := time.Now()
	tracedMS, tracedF := r.pass(inst, half, tr)
	window := time.Since(start).Seconds()
	host.end(window)
	pprof.StopCPUProfile()
	c1, err := inst.counts()
	if err != nil {
		return err
	}
	host.Ops = len(half)

	ops := float64(len(half))
	stacks, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	var profNS int64
	for bucket, ns := range attribute(stacks) {
		r.set(selfMetric(bucket), "ms", float64(ns)/1e6/ops)
		profNS += ns
	}
	r.set("client.self_ms_per_op", "ms", float64(tr.opSelfNS())/1e6/ops)
	r.set("runtime.alloc_mb_per_op", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/ops)
	r.set("runtime.mallocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs)/ops)

	d := func(k string) float64 { return c1[k] - c0[k] }
	warm, cold := d("machine_warm_reuses_total"), d("machine_cold_builds_total")
	r.set("service.warm_reuse_ratio", "ratio", warm/max(warm+cold, 1))
	for _, e := range exactCounts(c0, c1, ops) {
		if e.absent != "" {
			r.note("%-32s absent: %s", e.name, e.absent)
		} else {
			r.note("%-32s %.6g %s", e.name, e.value, e.unit)
		}
	}

	// Host-normalised like the end-to-end op_p50_ms, so a host phase
	// change between the halves does not read as tracing overhead.
	p50u := percentile(normalised(untraced, untracedF), 50)
	p50t := percentile(normalised(tracedMS, tracedF), 50)
	r.set("trace.untraced_op_p50_ms", "ms", p50u)
	r.set("trace.op_p50_ms", "ms", p50t)
	r.set("trace.overhead_ms", "ms", p50t-p50u)
	r.set("core.cold_setup_ms", "ms", r.setupMS[0])
	r.note("profile: %.0f ms CPU over %.0f ms wall, %d ops", float64(profNS)/1e6, window*1e3, len(half))

	// Every workload's decode probe parses the same whatif-idle request,
	// so its figure compares across workloads.
	if err := runProbes([]byte(fmt.Sprintf(idleQuery, host.Wseed)), r.set); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	return r.saveTrace(prof.Bytes(), tr)
}

// exactCount is one deterministic per-op count; absent gives the reason
// a workload cannot observe it from outside the program.
type exactCount struct {
	name, unit, absent string
	value              float64
}

// exactCounts derives the per-op counts from /metrics (simd) or the
// campaign results (Theta). They repeat bit-for-bit for the same op set.
func exactCounts(c0, c1 map[string]float64, ops float64) []exactCount {
	d := func(k string) (float64, bool) {
		_, ok := c1[k]
		return c1[k] - c0[k], ok
	}
	var out []exactCount
	add := func(name, unit string, v float64, ok bool, why string) {
		if ok {
			out = append(out, exactCount{name: name, unit: unit, value: v})
		} else {
			out = append(out, exactCount{name: name, unit: unit, absent: why})
		}
	}
	const noKernel = "core.Machine.RunCampaign does not expose its kernel or fabric counters"
	ev, okEv := d("sim_events_total")
	pk, okPk := d("sim_packets_delivered_total")
	add("sim.events_per_op", "count", ev/ops, okEv, noKernel)
	add("network.pkts_per_op", "count", pk/ops, okPk, noKernel)
	add("sim.events_per_pkt", "count", ev/max(pk, 1), okEv && okPk, noKernel)
	hits, okH := d("pool_hits_total")
	miss, _ := d("pool_misses_total")
	add("service.pool_hit_rate", "ratio", hits/max(hits+miss, 1), okH, "the workload uses no service pool")
	fl, okF := d("flits_total")
	add("network.flits_per_op", "count", fl/ops, okF, "simd responses and /metrics carry no flit totals")
	return out
}

// saveTrace writes the CPU profile and the spans under .bench_build/trace
// for reading with `go tool pprof`.
func (r *runner) saveTrace(prof []byte, tr *tracer) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, r.w.name)
	if err := os.WriteFile(base+".pprof", prof, 0o644); err != nil {
		return err
	}
	tr.mu.Lock()
	spans, err := json.MarshalIndent(tr.spans, "", " ")
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	r.note("trace files: %s.pprof, %s.spans.json", base, base)
	return os.WriteFile(base+".spans.json", spans, 0o644)
}

// report prints the human-readable lines, the host context, and the
// summary object as the last line.
func (r *runner) report(stdout io.Writer, host hostContext) error {
	for _, l := range r.lines {
		fmt.Fprintln(stdout, l)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for k := range r.res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.res.Metrics[k]
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	out, err := json.Marshal(r.res) // fails on a NaN or infinite metric
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n%s\n", hb, out)
	return nil
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// loadDigests reads the workload's recorded op digests, keyed by op seed.
func loadDigests(name string) (map[int64]string, error) {
	b, err := digestFS.ReadFile("digests/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	var raw map[string]string
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("digests/%s.json: %w", name, err)
	}
	out := make(map[int64]string, len(raw))
	for k, v := range raw {
		s, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("digests/%s.json: key %q: %w", name, k, err)
		}
		out[s] = v
	}
	return out, nil
}

// recordDigests runs every op the digests must cover — warm-up and ops
// of a maxSeconds run, for both seed bases — and writes their digests.
func recordDigests(w workload, path string) error {
	inst, err := w.setup()
	if err != nil {
		return err
	}
	defer inst.close()
	out := map[string]string{}
	for _, base := range []int64{defaultWseed, heldOutWseed} {
		for s := base - 1; s < base+int64(opCount(w, maxSeconds)); s++ {
			b, err := inst.op(s, nil)
			if err != nil {
				return fmt.Errorf("op seed %d: %w", s, err)
			}
			out[strconv.FormatInt(s, 10)] = digest(b)
		}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
