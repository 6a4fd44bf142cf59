package experiments

import (
	"math"
	"testing"

	"repro/internal/routing"
)

// TestFusedProfileFigures validates the fused-vs-split link models at
// the figure level: the production config has rampant exact-timestamp
// event ties (every full packet is exactly one MTU), where the fused and
// split models legitimately schedule contention races in different
// orders, so byte-identity is not owed (see network's fused equivalence
// tests for the tie-free identity proof). What must hold instead is that
// fusion — now the default; Profile.SplitLinks restores the reference —
// does not move the paper's results: per-app per-mode mean runtimes stay
// within a fraction of the reference campaign's own run-to-run spread,
// and the AD3-vs-AD0 ordering that Fig. 2 reports is preserved.
func TestFusedProfileFigures(t *testing.T) {
	ref := testProfile()
	ref.SplitLinks = true
	fused := testProfile()

	t2Ref, t2Fused := milcStudy(t, ref, 3, true), milcStudy(t, fused, 3, true)
	rRef := Fig2FromSamples(t2Ref.Nodes, t2Ref.Samples)
	rFused := Fig2FromSamples(t2Fused.Nodes, t2Fused.Samples)
	for _, app := range []string{"MILC", "MILCREORDER"} {
		for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
			mr := rRef.PerApp[app][mode]
			mf := rFused.PerApp[app][mode]
			if mf.N == 0 || mf.Mean <= 0 {
				t.Fatalf("fused %s/%s stats empty: %+v", app, mode, mf)
			}
			// Tolerance: the larger of the reference spread and 5% of the
			// mean (Quick-scale campaigns can have near-zero σ).
			tol := math.Max(mr.Std, 0.05*mr.Mean)
			if d := math.Abs(mf.Mean - mr.Mean); d > tol {
				t.Errorf("%s/%s: fused mean %.4fs vs reference %.4fs (Δ=%.4fs > tol %.4fs)",
					app, mode, mf.Mean, mr.Mean, d, tol)
			}
		}
		// Fig. 2's qualitative claim: AD3 does not lose to AD0 by more
		// than the tolerance under either model.
		ad0, ad3 := rFused.PerApp[app][routing.AD0], rFused.PerApp[app][routing.AD3]
		if ad3.Mean > ad0.Mean*1.10 {
			t.Errorf("%s: fused AD3 mean %.4fs worse than AD0 %.4fs beyond spread",
				app, ad3.Mean, ad0.Mean)
		}
	}

	// Fig. 6's tile-ratio structure must survive fusion: ratios present
	// for both modes, and the pooled means within the same tolerance
	// regime (stall accounting is the part of the counter contract the
	// lazy settle machinery most directly touches).
	f6Ref := Fig6FromTable2(milcStudy(t, ref, 7, false))
	f6Fused := Fig6FromTable2(milcStudy(t, fused, 7, false))
	for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
		if len(f6Fused.Ratios[mode]) == 0 {
			t.Fatalf("fused fig6: no ratios for %s", mode)
		}
		// Pool across classes by count-weighting the per-class aggregates.
		var sumFused, sumRef float64
		var nFused, nRef int
		for class, rs := range f6Fused.Ratios[mode] {
			sumFused += rs.Sum()
			nFused += rs.Count()
			sumRef += f6Ref.Ratios[mode][class].Sum()
			nRef += f6Ref.Ratios[mode][class].Count()
		}
		mRef := pooledMean(sumRef, nRef)
		mFused := pooledMean(sumFused, nFused)
		if mRef > 0 {
			if d := math.Abs(mFused - mRef); d > 0.25*mRef+0.01 {
				t.Errorf("fig6 %s: fused mean tile ratio %.4f vs reference %.4f",
					mode, mFused, mRef)
			}
		}
	}
}

func pooledMean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
