package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// aggFrom folds xs into a fresh default-cap aggregate.
func aggFrom(xs []float64) *Agg {
	a := NewAgg()
	a.AddAll(xs)
	return a
}

// randomValues draws n values from a mix of scales so the sketch sees
// range growth in both directions.
func randomValues(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch r.Intn(3) {
		case 0:
			xs[i] = r.NormFloat64()
		case 1:
			xs[i] = 100 + 50*r.NormFloat64()
		default:
			xs[i] = r.Float64() * 1e-3
		}
	}
	return xs
}

// TestAggExactMatchesBatch pins the exact-mode contract: below the cap,
// every read is bit-identical to the batch function it delegates to.
func TestAggExactMatchesBatch(t *testing.T) {
	prop := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = float64(i)
			}
		}
		a := aggFrom(xs)
		if a.sk != nil {
			return len(xs) > ExactCap
		}
		if a.Mean() != Mean(xs) || a.Count() != len(xs) {
			return false
		}
		for _, p := range []float64{0, 25, 50, 95, 100} {
			got, want := a.Percentile(p), Percentile(xs, p)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				return false
			}
		}
		gotPs := a.Percentiles([]float64{50, 95})
		wantPs := Percentiles(xs, []float64{50, 95})
		for i := range gotPs {
			if gotPs[i] != wantPs[i] && !(math.IsNaN(gotPs[i]) && math.IsNaN(wantPs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAggStreamingMoments checks that the streaming count, mean and
// extremes agree with the batch computation once the aggregate has
// spilled past ExactCap.
func TestAggStreamingMoments(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	xs := randomValues(r, 2*ExactCap+500)
	a := aggFrom(xs)
	if a.sk == nil {
		t.Fatal("aggregate did not spill past ExactCap")
	}
	if a.Count() != len(xs) {
		t.Fatalf("Count = %d, want %d", a.Count(), len(xs))
	}
	if m := Mean(xs); !approx(a.Mean(), m, 1e-9*math.Abs(m)) {
		t.Fatalf("streaming mean %v, batch %v", a.Mean(), m)
	}
	mn, mx := MinMax(xs)
	if a.Percentile(0) != mn || a.Percentile(100) != mx {
		t.Fatalf("streaming p0/p100 %v/%v, batch min/max %v/%v",
			a.Percentile(0), a.Percentile(100), mn, mx)
	}
}

// TestAggMergeSeedOrderDeterminism is the worker-count invariance
// argument in miniature: folding contiguous per-chunk aggregates in chunk
// (seed) order must match the sequential fold — bit for bit while the
// values fit ExactCap, to tolerance once they stream.
func TestAggMergeSeedOrderDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, n := range []int{900, 3*ExactCap + 100} {
		xs := randomValues(r, n)
		seq := aggFrom(xs)
		for _, workers := range []int{1, 2, 8} {
			// Contiguous blocks in index order: the runner's seed-order
			// merge of per-run aggregates.
			got := NewAgg()
			per := (len(xs) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo, hi := w*per, min((w+1)*per, len(xs))
				got.Merge(aggFrom(xs[lo:hi]))
			}
			if (got.sk == nil) != (seq.sk == nil) {
				t.Fatalf("n=%d workers=%d: mode mismatch", n, workers)
			}
			if got.sk == nil {
				if !reflect.DeepEqual(got.exact, seq.exact) {
					t.Fatalf("n=%d workers=%d: merged buffer differs from sequential", n, workers)
				}
				continue
			}
			// Streaming: block merges are NOT bit-identical to the
			// sequential fold (different float association and sketch
			// re-quantization), but the statistics agree to tolerance.
			if !approx(got.Mean(), seq.Mean(), 1e-9*math.Abs(seq.Mean())) ||
				got.Percentile(0) != seq.Percentile(0) ||
				got.Percentile(100) != seq.Percentile(100) ||
				got.Count() != seq.Count() {
				t.Fatalf("n=%d workers=%d: merged stats diverge from sequential", n, workers)
			}
		}
	}
}

// TestAggMergeExactBitIdentical pins the strong form the campaign relies
// on: with exact-mode per-run aggregates (the production regime — runs
// per figure are far below ExactCap), merging in seed order equals the
// sequential fold exactly, bit for bit, including percentile reads.
func TestAggMergeExactBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	xs := randomValues(r, 240)
	seq := aggFrom(xs)
	for _, workers := range []int{1, 2, 3, 8} {
		merged := NewAgg()
		per := (len(xs) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*per, (w+1)*per
			if hi > len(xs) {
				hi = len(xs)
			}
			merged.Merge(aggFrom(xs[lo:hi]))
		}
		if !reflect.DeepEqual(merged, seq) {
			t.Fatalf("workers=%d: merged aggregate state differs from sequential", workers)
		}
		for _, p := range []float64{25, 50, 75, 95, 99} {
			if merged.Percentile(p) != seq.Percentile(p) {
				t.Fatalf("workers=%d: p%v differs", workers, p)
			}
		}
	}
}

// TestSketchErrorBound checks the documented guarantee: streaming
// percentiles land within one sketch bin width of the exact answer.
func TestSketchErrorBound(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		r := rand.New(rand.NewSource(seed))
		xs := randomValues(r, 20000)
		a := aggFrom(xs)
		if a.sk == nil {
			t.Fatal("expected streaming mode")
		}
		binW := a.sk.binWidth()
		for _, p := range []float64{1, 5, 25, 50, 75, 90, 95, 99, 99.9} {
			got := a.Percentile(p)
			want := Percentile(xs, p)
			if math.Abs(got-want) > binW {
				t.Fatalf("seed %d p%v: sketch %v vs exact %v exceeds bin width %v",
					seed, p, got, want, binW)
			}
		}
		// Extremes are exact by construction.
		mn, mx := MinMax(xs)
		if a.Percentile(0) != mn || a.Percentile(100) != mx {
			t.Fatalf("seed %d: p0/p100 not clamped to true extremes", seed)
		}
	}
}

// TestSketchRangeGrowth exercises both growth directions and the merge
// path across disjoint ranges.
func TestSketchRangeGrowth(t *testing.T) {
	s := NewSketch(0, 1, 8)
	s.Add(0.5)
	s.Add(100) // forces upward doubling
	s.Add(-50) // forces downward doubling
	if n := s.Count(); n != 3 {
		t.Fatalf("Count = %d after growth, want 3", n)
	}
	if s.lo > -50 || s.hi <= 100 {
		t.Fatalf("range [%v,%v) does not cover inserted values", s.lo, s.hi)
	}
	var total uint64
	for _, c := range s.counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("bin mass %d leaked during growth, want 3", total)
	}

	a := NewSketch(0, 1, 64)
	b := NewSketch(1000, 2000, 64)
	for i := 0; i < 100; i++ {
		a.Add(float64(i) / 100)
		b.Add(1000 + 10*float64(i))
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count %d, want 200", a.Count())
	}
	if q := a.Quantile(99); q < 900 {
		t.Fatalf("upper tail lost in merge: p99 = %v", q)
	}
}

// TestSketchDeterminism: identical insertion order → identical state.
func TestSketchDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	xs := randomValues(r, 3000)
	a, b := NewSketch(0, 1, 128), NewSketch(0, 1, 128)
	for _, x := range xs {
		a.Add(x)
		b.Add(x)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same insertion order produced different sketch state")
	}
}

// TestAggEmptyAndNil pins the empty/nil read semantics shared with the
// batch functions.
func TestAggEmptyAndNil(t *testing.T) {
	var nilAgg *Agg
	for _, a := range []*Agg{nilAgg, NewAgg()} {
		if a.Count() != 0 || a.Mean() != 0 {
			t.Fatal("empty aggregate reads nonzero")
		}
		if !math.IsNaN(a.Percentile(50)) || !math.IsNaN(a.Percentiles([]float64{95})[0]) {
			t.Fatal("empty percentile should be NaN")
		}
	}
	a := NewAgg()
	a.Merge(nilAgg)
	a.Merge(NewAgg())
	if a.Count() != 0 {
		t.Fatal("merging empties added values")
	}
}
