// Package stats provides the statistical machinery the paper's analysis
// uses: mean/σ, Z-score normalization, percentiles, histogram PDFs, CCDFs,
// the ±3σ outlier filter applied to run samples, and a Welch t-test used
// to check that reported improvements are significant.
//
// One rule decides which form a statistic takes. Values that grow with
// the machine or the window — per-tile counter ratios (Figs. 6/11),
// LDMS router and NIC samples (Figs. 13/14) — fold into an Agg, which
// keeps memory bounded by streaming past ExactCap. One-value-per-run
// data (runtimes, MPI times, z-scores: a few dozen values per mode at
// most) stays in a []float64 and goes through the batch functions in
// this file, which are the only implementations of the outlier filter,
// z-scores, histograms, Welch's t and percent improvement.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator; 0 when
// fewer than two samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// MeanStd returns both moments in one pass over the data.
func MeanStd(xs []float64) (mean, std float64) {
	return Mean(xs), StdDev(xs)
}

// ZScoresAgainst normalizes xs using an externally supplied mean and
// deviation (the paper normalizes each job size against the pooled mean of
// both routing modes).
func ZScoresAgainst(xs []float64, mean, std float64) []float64 {
	out := make([]float64, len(xs))
	if std == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - mean) / std
	}
	return out
}

// FilterOutliers removes samples more than k standard deviations from the
// mean — the paper removes ±3σ outliers attributed to extreme congestion
// events, amounting to <1% of samples.
func FilterOutliers(xs []float64, k float64) []float64 {
	m, s := MeanStd(xs)
	if s == 0 {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.Abs(x-m) <= k*s {
			out = append(out, x)
		}
	}
	return out
}

// Percentile returns the p-th percentile (0..100) by linear interpolation
// between order statistics. NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// Percentiles computes several percentiles with a single sort.
func Percentiles(xs []float64, ps []float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range ps {
		out[i] = percentileSorted(s, p)
	}
	return out
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Histogram is a fixed-width binned density estimate.
type Histogram struct {
	Lo      float64
	Counts  []int
	Total   int
	BinSize float64
}

// NewHistogram bins xs into `bins` equal-width bins spanning [lo, hi].
// Samples outside the range are clamped into the edge bins.
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	h := &Histogram{Lo: lo, Counts: make([]int, bins), BinSize: (hi - lo) / float64(bins)}
	for _, x := range xs {
		i := int((x - lo) / h.BinSize)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
		h.Total++
	}
	return h
}

// PDF returns the probability density of bin i (integrates to ~1).
func (h *Histogram) PDF(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total) / h.BinSize
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinSize
}

// CCDFPoint is one point of a complementary CDF.
type CCDFPoint struct {
	X    float64
	Frac float64 // fraction of mass at values >= X
}

// WeightedCCDF computes the complementary cumulative distribution of
// weight over x: for each distinct x, the fraction of total weight at
// values >= x. This is the form of the paper's Fig. 1 (core-hours vs job
// size).
func WeightedCCDF(xs, weights []float64) []CCDFPoint {
	if len(xs) != len(weights) || len(xs) == 0 {
		return nil
	}
	type pair struct{ x, w float64 }
	ps := make([]pair, len(xs))
	total := 0.0
	for i := range xs {
		ps[i] = pair{xs[i], weights[i]}
		total += weights[i]
	}
	if total == 0 {
		return nil
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].x < ps[j].x })
	// Collapse duplicates, then accumulate from the top.
	var merged []pair
	for _, p := range ps {
		if len(merged) > 0 && merged[len(merged)-1].x == p.x {
			merged[len(merged)-1].w += p.w
		} else {
			merged = append(merged, p)
		}
	}
	out := make([]CCDFPoint, len(merged))
	tail := 0.0
	for i := len(merged) - 1; i >= 0; i-- {
		tail += merged[i].w
		out[i] = CCDFPoint{X: merged[i].x, Frac: tail / total}
	}
	return out
}

// WelchT returns the Welch t-statistic and approximate degrees of freedom
// for the difference of means between two samples. |t| >~ 2 indicates a
// significant difference at the usual 95% level for the sample sizes used
// in the paper (>30 runs).
func WelchT(a, b []float64) (t, df float64) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 0
	}
	ma, sa := MeanStd(a)
	mb, sb := MeanStd(b)
	va, vb := sa*sa/float64(len(a)), sb*sb/float64(len(b))
	if va+vb == 0 {
		return 0, 0
	}
	t = (ma - mb) / math.Sqrt(va+vb)
	df = (va + vb) * (va + vb) /
		(va*va/float64(len(a)-1) + vb*vb/float64(len(b)-1))
	return t, df
}

// PercentImprovement returns how much smaller b's mean is than a's, in
// percent (positive = b improved over a), the paper's headline metric.
func PercentImprovement(a, b []float64) float64 {
	ma, mb := Mean(a), Mean(b)
	if ma == 0 {
		return 0
	}
	return (ma - mb) / ma * 100
}

// MinMax returns the extrema (0,0 for empty input).
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
