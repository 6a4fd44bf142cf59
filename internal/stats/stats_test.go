package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !approx(m, 5, 1e-12) {
		t.Errorf("mean = %g", m)
	}
	// Sample std with n-1: variance = 32/7.
	if s := StdDev(xs); !approx(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("std = %g", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty/single-sample edge cases")
	}
}

// TestZScores normalizes a sample against its own moments.
func TestZScores(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	m, sd := MeanStd(xs)
	zs := ZScoresAgainst(xs, m, sd)
	if !approx(Mean(zs), 0, 1e-12) {
		t.Errorf("z mean = %g", Mean(zs))
	}
	if !approx(StdDev(zs), 1, 1e-12) {
		t.Errorf("z std = %g", StdDev(zs))
	}
	// Constant input: all zeros.
	flat := []float64{3, 3, 3}
	m, sd = MeanStd(flat)
	for _, z := range ZScoresAgainst(flat, m, sd) {
		if z != 0 {
			t.Error("constant input should give zero scores")
		}
	}
}

func TestZScoresAgainst(t *testing.T) {
	zs := ZScoresAgainst([]float64{10, 20}, 10, 5)
	if zs[0] != 0 || zs[1] != 2 {
		t.Errorf("zs = %v", zs)
	}
	zs = ZScoresAgainst([]float64{10}, 0, 0)
	if zs[0] != 0 {
		t.Error("zero std should yield zero scores")
	}
}

func TestFilterOutliers(t *testing.T) {
	xs := []float64{10, 11, 9, 10, 10, 11, 9, 10, 10, 9, 11, 10, 25}
	out := FilterOutliers(xs, 3)
	for _, x := range out {
		if x == 25 {
			t.Fatal("outlier survived")
		}
	}
	if len(out) != len(xs)-1 {
		t.Fatalf("filtered to %d, want %d", len(out), len(xs)-1)
	}
	// Constant data passes through.
	if got := FilterOutliers([]float64{5, 5, 5}, 3); len(got) != 3 {
		t.Error("constant data should pass through")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !approx(got, c.want, 1e-9) {
			t.Errorf("P%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	multi := Percentiles(xs, []float64{0, 50, 100})
	if multi[0] != 1 || !approx(multi[1], 5.5, 1e-9) || multi[2] != 10 {
		t.Errorf("multi = %v", multi)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.5, 1.5, 1.6, 2.5, -1, 99}
	h := NewHistogram(xs, 0, 3, 3)
	if h.Total != 6 {
		t.Fatalf("total = %d", h.Total)
	}
	// -1 clamps into bin 0, 99 into bin 2.
	if h.Counts[0] != 2 || h.Counts[1] != 2 || h.Counts[2] != 2 {
		t.Fatalf("counts = %v", h.Counts)
	}
	// PDF integrates to 1.
	integral := 0.0
	for i := range h.Counts {
		integral += h.PDF(i) * h.BinSize
	}
	if !approx(integral, 1, 1e-12) {
		t.Errorf("pdf integral = %g", integral)
	}
	if !approx(h.BinCenter(1), 1.5, 1e-12) {
		t.Errorf("bin center = %g", h.BinCenter(1))
	}
}

func TestWeightedCCDF(t *testing.T) {
	// Job sizes with core-hour weights.
	xs := []float64{128, 256, 128, 512}
	ws := []float64{10, 20, 30, 40}
	ccdf := WeightedCCDF(xs, ws)
	if len(ccdf) != 3 {
		t.Fatalf("points = %d", len(ccdf))
	}
	// At x=128 all mass is >=128.
	if ccdf[0].X != 128 || !approx(ccdf[0].Frac, 1.0, 1e-12) {
		t.Errorf("ccdf[0] = %+v", ccdf[0])
	}
	if ccdf[1].X != 256 || !approx(ccdf[1].Frac, 0.6, 1e-12) {
		t.Errorf("ccdf[1] = %+v", ccdf[1])
	}
	if ccdf[2].X != 512 || !approx(ccdf[2].Frac, 0.4, 1e-12) {
		t.Errorf("ccdf[2] = %+v", ccdf[2])
	}
	if WeightedCCDF(nil, nil) != nil {
		t.Error("empty input should return nil")
	}
}

func TestWelchT(t *testing.T) {
	a := []float64{542, 540, 545, 538, 541, 543}
	b := []float64{482, 480, 485, 479, 483, 481}
	tt, df := WelchT(a, b)
	if tt < 10 {
		t.Errorf("clearly different samples: t = %g", tt)
	}
	if df <= 0 {
		t.Errorf("df = %g", df)
	}
	// Identical distributions: small t.
	tt, _ = WelchT(a, a)
	if tt != 0 {
		t.Errorf("self t = %g", tt)
	}
}

func TestPercentImprovement(t *testing.T) {
	a := []float64{100, 100}
	b := []float64{88, 88}
	if got := PercentImprovement(a, b); !approx(got, 12, 1e-12) {
		t.Errorf("improvement = %g", got)
	}
	if PercentImprovement([]float64{0, 0}, b) != 0 {
		t.Error("zero baseline should return 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("minmax = %g,%g", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Error("empty minmax")
	}
}

// Property: Z-scores of any sample with spread have mean ~0 and std ~1;
// outlier filtering never removes more than it should nor returns more
// elements than given.
func TestStatsProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 3 {
			return true
		}
		if m, sd := MeanStd(xs); sd > 0 {
			zs := ZScoresAgainst(xs, m, sd)
			if !approx(Mean(zs), 0, 1e-6) || !approx(StdDev(zs), 1, 1e-6) {
				return false
			}
		}
		filtered := FilterOutliers(xs, 3)
		if len(filtered) > len(xs) {
			return false
		}
		// Percentiles are monotone.
		ps := Percentiles(xs, []float64{5, 25, 50, 75, 95})
		for i := 1; i < len(ps); i++ {
			if ps[i] < ps[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: CCDF fractions are monotonically nonincreasing in x and start
// at 1.
func TestCCDFProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		xs := make([]float64, len(sizes))
		ws := make([]float64, len(sizes))
		for i, s := range sizes {
			xs[i] = float64(s%1024) + 1
			ws[i] = float64(s%97) + 1
		}
		ccdf := WeightedCCDF(xs, ws)
		if len(ccdf) == 0 {
			return false
		}
		if !approx(ccdf[0].Frac, 1, 1e-9) {
			return false
		}
		for i := 1; i < len(ccdf); i++ {
			if ccdf[i].Frac > ccdf[i-1].Frac || ccdf[i].X <= ccdf[i-1].X {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
