package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// opCounts runs seeds on a fresh instance of w, checks each op against its
// recorded digest, and returns the exact per-op counts of the run.
func opCounts(t *testing.T, w workload, seeds []int64) []exactCount {
	t.Helper()
	want, err := loadDigests(w.name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.setup()
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	c0, err := inst.counts()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		out, err := inst.op(s, nil)
		if err != nil {
			t.Fatalf("%s op seed %d: %v", w.name, s, err)
		}
		if got := digest(out); got != want[s] {
			t.Errorf("%s op seed %d: digest %s, recorded %s", w.name, s, got, want[s])
		}
	}
	c1, err := inst.counts()
	if err != nil {
		t.Fatal(err)
	}
	return exactCounts(c0, c1, float64(len(seeds)))
}

// TestExactCountsRepeat is the work-identity check: the same op set run
// twice on fresh instances yields bit-identical per-op counts, every op
// matches its recorded digest, and counts a workload cannot observe are
// reported absent rather than as zero.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name != "whatif-idle" {
				t.Skip("slow workload in -short mode")
			}
			seeds := []int64{defaultWseed, defaultWseed + 1, heldOutWseed}
			a := opCounts(t, w, seeds)
			b := opCounts(t, w, seeds)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("counts differ between identical runs:\n%+v\n%+v", a, b)
			}
			for _, c := range a {
				isSimd := strings.HasPrefix(w.name, "whatif-")
				shouldBeAbsent := isSimd == (c.name == "network.flits_per_op")
				if (c.absent != "") != shouldBeAbsent {
					t.Errorf("%s: absent=%q, want absent=%v", c.name, c.absent, shouldBeAbsent)
				}
				if c.absent == "" && c.value <= 0 {
					t.Errorf("%s = %g, want > 0", c.name, c.value)
				}
			}
		})
	}
}

func TestOpSeedsFixedSet(t *testing.T) {
	a, b := opSeeds(5, 40, 1), opSeeds(5, 40, 2)
	if reflect.DeepEqual(a, b) {
		t.Error("different order seeds gave the same order")
	}
	seen := map[int64]bool{}
	for _, s := range a {
		seen[s] = true
	}
	for _, s := range b {
		if !seen[s] || s < 5 || s >= 45 {
			t.Fatalf("order seeds changed the op set: %v vs %v", a, b)
		}
	}
	if len(seen) != 40 {
		t.Fatalf("an op repeats within a run: %v", a)
	}
}

// TestHostRef checks the host reference: a sample allocates nothing (it
// runs beside timed ops, so it must not feed the garbage collector), a
// long op is sampled while it runs and a short one is topped up after it,
// and dividing by the factors is what the end-to-end times use.
func TestHostRef(t *testing.T) {
	h := newHostRef()
	if n := testing.AllocsPerRun(10, func() { h.sampleMS() }); n != 0 {
		t.Errorf("a host-reference sample allocates %v times", n)
	}
	h.start()
	time.Sleep(5 * refEveryMS * time.Millisecond)
	f, spent := h.finish()
	if f <= 0 || spent <= 0 || len(h.samples) < refMinSamples {
		t.Errorf("long op: factor %v, %v ms spent, %d samples", f, spent, len(h.samples))
	}
	h.start()
	f, spent = h.finish()
	if f <= 0 || spent != 0 || len(h.samples) != refMinSamples {
		t.Errorf("short op: factor %v, %v ms spent, %d samples; want >0, 0, %d", f, spent, len(h.samples), refMinSamples)
	}
	got := normalised([]float64{10, 30}, []float64{2, 1.5})
	if !reflect.DeepEqual(got, []float64{5, 20}) {
		t.Errorf("normalised = %v, want [5 20]", got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"math/rand.(*Rand).Int63", "repro/internal/network.(*Fabric).jitter", "repro/internal/routing.(*Engine).pathLoad"}, "network"},
		{[]string{"runtime.mallocgc", "repro/internal/sim.(*Kernel).AtEvent"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule"}, "runtime.sched"},
		{[]string{"syscall.Syscall", "net.(*conn).Read", "main.(*simd).op"}, "runtime.other"},
		{[]string{"repro/internal/viz.Render", "repro/internal/parallel.MapContext.func1"}, "parallel"},
		{[]string{"main.refPush", "main.(*hostRef).sampleMS", "main.(*hostRef).factor"}, ""},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestParseCPUProfile decodes a real runtime/pprof profile and finds the
// function that burned the CPU.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spinNS, total int64
	for _, st := range stacks {
		total += st.ns
		for _, f := range st.funcs {
			if strings.HasSuffix(f, ".spin") {
				spinNS += st.ns
				break
			}
		}
	}
	if spinNS < int64(100*time.Millisecond) || spinNS > total {
		t.Errorf("spin charged %v of %v profiled", time.Duration(spinNS), time.Duration(total))
	}
}

// TestMetricNamesMatchBenchmark keeps BENCHMARK.json's metric lists and
// the names the runs report in step.
func TestMetricNamesMatchBenchmark(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(bench.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, runs report %v", got, endToEndMetrics)
	}
	if got := names(bench.PerLayer); !reflect.DeepEqual(got, perLayerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer %v, traced runs report %v", got, perLayerMetrics())
	}
}
