package stats

import "math"

// sketchBins is the default resolution of the streaming quantile sketch.
// The rank-space error of a fixed-grid sketch is bounded by one bin width
// in VALUE space: |estimate - exact| <= (hi-lo)/bins after range growth,
// where [lo, hi) is the final (power-of-two multiple of the initial)
// range. 512 bins keep the worst-case value error under 0.2% of the
// observed range while the whole sketch stays ~4KB — fixed-size no matter
// how many samples stream through it.
const sketchBins = 512

// Sketch is a deterministic fixed-size streaming quantile sketch: a
// fixed-width histogram over a range that grows by doubling. There is no
// randomization anywhere — Add, Merge, and Quantile are pure functions of
// the value sequence — and growth only ever collapses whole bin pairs
// (doubling keeps old bin boundaries aligned with new ones), so the same
// insertion order always yields bit-identical state. Merging folds the
// other sketch's bins in at their centers; campaign pipelines merge in
// seed order, which keeps worker-count invariance by construction.
type Sketch struct {
	lo, hi float64 // current range; values bin uniformly into [lo, hi)
	counts []uint64
	n      uint64
}

// NewSketch builds a sketch with an initial range [lo, hi) and the given
// bin count (rounded up to even; < 2 uses the default resolution). A
// degenerate range (hi <= lo) is widened to one unit, mirroring
// NewHistogram.
func NewSketch(lo, hi float64, bins int) *Sketch {
	if bins < 2 {
		bins = sketchBins
	}
	bins += bins % 2
	if hi <= lo {
		hi = lo + 1
	}
	return &Sketch{lo: lo, hi: hi, counts: make([]uint64, bins)}
}

// Count returns the number of values added.
func (s *Sketch) Count() uint64 { return s.n }

// binWidth returns the current width of one bin.
func (s *Sketch) binWidth() float64 {
	return (s.hi - s.lo) / float64(len(s.counts))
}

// Add records one value.
func (s *Sketch) Add(x float64) { s.AddN(x, 1) }

// AddN records a value with multiplicity w.
func (s *Sketch) AddN(x float64, w uint64) {
	if w == 0 {
		return
	}
	s.cover(x)
	s.counts[s.binOf(x)] += w
	s.n += w
}

// binOf maps a covered value to its bin, clamping edge cases (x == hi
// after cover, or non-finite values that exhausted the growth budget)
// into the boundary bins.
func (s *Sketch) binOf(x float64) int {
	i := int((x - s.lo) / s.binWidth())
	if i < 0 {
		i = 0
	}
	if i >= len(s.counts) {
		i = len(s.counts) - 1
	}
	return i
}

// cover grows the range by doubling until x falls inside [lo, hi). The
// iteration budget bounds pathological inputs (±Inf, NaN): any finite
// value is reached in well under 4096 doublings from any finite range,
// and non-finite values simply clamp into an edge bin.
func (s *Sketch) cover(x float64) {
	for i := 0; i < 4096 && x < s.lo; i++ {
		s.growDown()
	}
	for i := 0; i < 4096 && x >= s.hi; i++ {
		s.growUp()
	}
}

// growUp doubles the range upward: adjacent bin pairs collapse into the
// lower half and the upper half opens empty.
func (s *Sketch) growUp() {
	b := s.counts
	h := len(b) / 2
	for i := 0; i < h; i++ {
		b[i] = b[2*i] + b[2*i+1]
	}
	for i := h; i < len(b); i++ {
		b[i] = 0
	}
	s.hi = s.lo + 2*(s.hi-s.lo)
}

// growDown doubles the range downward: pairs collapse into the upper
// half (written top-down so no source bin is clobbered before it is
// read) and the lower half opens empty.
func (s *Sketch) growDown() {
	b := s.counts
	h := len(b) / 2
	for i := len(b) - 1; i >= h; i-- {
		b[i] = b[2*(i-h)] + b[2*(i-h)+1]
	}
	for i := 0; i < h; i++ {
		b[i] = 0
	}
	s.lo = s.hi - 2*(s.hi-s.lo)
}

// Merge folds o into s by re-adding each of o's occupied bins at its
// center. The result depends on the merge order (bin centers re-quantize
// into s's grid), so callers that need run-to-run determinism must merge
// in a fixed order — the campaign runners merge in seed order.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	ow := o.binWidth()
	for i, c := range o.counts {
		if c == 0 {
			continue
		}
		s.AddN(o.lo+(float64(i)+0.5)*ow, c)
	}
}

// Quantile estimates the p-th percentile (0..100) with the same
// rank-interpolation convention as Percentile: position p/100*(n-1) in
// the sorted order, values assumed uniform within a bin. The error is at
// most one bin width.
func (s *Sketch) Quantile(p float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(s.n-1)
	if rank < 0 {
		rank = 0
	}
	if rank > float64(s.n-1) {
		rank = float64(s.n - 1)
	}
	w := s.binWidth()
	var cum uint64
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		if rank < float64(cum+c) {
			off := (rank - float64(cum) + 0.5) / float64(c)
			if off < 0 {
				off = 0
			}
			if off > 1 {
				off = 1
			}
			return s.lo + (float64(i)+off)*w
		}
		cum += c
	}
	return s.hi
}
