package stats

// ExactCap is the number of values an Agg retains verbatim before
// switching to streaming mode (running mean + quantile sketch). Below
// the cap every read delegates to the batch functions in this package
// over the insertion-order buffer, so results are bit-identical to the
// batch pipelines — this is what keeps the figure/table goldens
// byte-stable. Above the cap memory is fixed (~4KB sketch + a few
// scalars) regardless of how many values stream through; percentile
// error is then bounded by one sketch bin width (see Sketch).
const ExactCap = 4096

// Agg is an online, mergeable aggregate of a value stream that grows
// with the machine or the window (per-tile counter ratios, LDMS
// samples): count, sum, mean and percentiles in memory bounded by
// ExactCap. Determinism contract: an Agg's state is a pure function of
// its value insertion order. Merging an exact-mode Agg replays its
// values in insertion order — so folding per-run aggregates in seed
// order reproduces the sequential fold bit-for-bit, and worker-count
// invariance holds by construction. The zero value and nil are both
// empty, ready-to-read aggregates (but Add requires a non-nil receiver).
type Agg struct {
	n        uint64
	sum      float64
	min, max float64

	// exact holds the values in insertion order while n <= ExactCap; nil
	// once spilled to streaming mode.
	exact []float64

	// Streaming state (valid once sk != nil): the running mean of all n
	// values and the quantile sketch.
	mean float64
	sk   *Sketch
}

// NewAgg returns an empty aggregate.
func NewAgg() *Agg { return &Agg{} }

// Add records one value.
func (a *Agg) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	a.sum += x
	if a.sk == nil {
		if len(a.exact) < ExactCap {
			a.exact = append(a.exact, x)
			return
		}
		a.spill()
	}
	a.mean += (x - a.mean) / float64(a.n)
	a.sk.AddN(x, 1)
}

// AddAll records every value in order.
func (a *Agg) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// spill converts the aggregate to streaming mode, replaying the exact
// buffer (in insertion order) into the running mean and a fresh sketch
// spanning the observed range.
func (a *Agg) spill() {
	a.sk = NewSketch(a.min, a.max, sketchBins)
	for i, v := range a.exact {
		a.mean += (v - a.mean) / float64(i+1)
		a.sk.AddN(v, 1)
	}
	a.exact = nil
}

// Merge folds b into a. An exact-mode b is replayed value-by-value in
// insertion order — equivalent to having Add-ed b's stream after a's, so
// seed-ordered merges are bit-identical to a sequential fold. A
// streaming b combines means with the Chan et al. parallel update and
// merges sketches. b is not modified.
func (a *Agg) Merge(b *Agg) {
	if b == nil || b.n == 0 {
		return
	}
	if b.sk == nil {
		for _, x := range b.exact {
			a.Add(x)
		}
		return
	}
	if a.n == 0 {
		a.min, a.max = b.min, b.max
	} else {
		if b.min < a.min {
			a.min = b.min
		}
		if b.max > a.max {
			a.max = b.max
		}
	}
	a.n += b.n
	a.sum += b.sum
	if a.sk == nil {
		a.spill()
	}
	a.mean += (b.mean - a.mean) * float64(b.n) / float64(a.n)
	a.sk.Merge(b.sk)
}

// Count returns the number of values folded in.
func (a *Agg) Count() int {
	if a == nil {
		return 0
	}
	return int(a.n)
}

// Sum returns the running sum.
func (a *Agg) Sum() float64 {
	if a == nil {
		return 0
	}
	return a.sum
}

// Mean returns the arithmetic mean (0 if empty, matching Mean).
func (a *Agg) Mean() float64 {
	if a == nil || a.sk == nil {
		return Mean(a.values())
	}
	return a.mean
}

// Percentile returns the p-th percentile: exact (batch Percentile) below
// the cap, sketch estimate clamped to the true observed [min, max]
// above it. NaN if empty, matching Percentile.
func (a *Agg) Percentile(p float64) float64 {
	if a == nil || a.sk == nil {
		return Percentile(a.values(), p)
	}
	if p <= 0 {
		return a.min
	}
	if p >= 100 {
		return a.max
	}
	q := a.sk.Quantile(p)
	if q < a.min {
		q = a.min
	}
	if q > a.max {
		q = a.max
	}
	return q
}

// Percentiles returns the given percentiles, sorting the exact buffer
// once (matching Percentiles) or querying the sketch per point.
func (a *Agg) Percentiles(ps []float64) []float64 {
	if a == nil || a.sk == nil {
		return Percentiles(a.values(), ps)
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = a.Percentile(p)
	}
	return out
}

// values returns the exact-mode buffer (nil for a nil aggregate).
func (a *Agg) values() []float64 {
	if a == nil {
		return nil
	}
	return a.exact
}
