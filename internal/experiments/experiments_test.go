package experiments

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/routing"
	"repro/internal/sim"
)

// testProfile is the bench-scale profile, which is the smallest that
// still drives every harness end to end. It fans runs out over all CPUs:
// output is identical for any worker count (see determinism_test.go), and
// running the whole suite through the pool keeps the parallel paths under
// the race detector in CI.
//
// Under -short the campaigns shrink further (fewer runs and iterations,
// shorter windows): the race detector multiplies DES cost by roughly an
// order of magnitude, so CI's `go test -race -short` pass exercises every
// harness and the full parallel machinery without full-scale campaigns.
func testProfile() Profile {
	p := Bench()
	p.Name = "test"
	p.Workers = runtime.NumCPU()
	if testing.Short() {
		p.Runs = 1
		p.CampaignWindow = 6 * sim.Millisecond
		p.LDMSPeriod = 2 * sim.Millisecond
		for app, n := range p.Iterations {
			if n > 1 {
				p.Iterations[app] = (n + 1) / 2
			}
		}
	}
	return p
}

func TestFig1(t *testing.T) {
	r := Fig1JobSizes(testProfile(), 1)
	if len(r.CCDF) < 5 {
		t.Fatalf("ccdf points = %d", len(r.CCDF))
	}
	if r.Frac128to512 < 0.3 || r.Frac128to512 > 0.5 {
		t.Errorf("128-512 share = %.2f, want ~0.40", r.Frac128to512)
	}
	out := r.Render()
	if !strings.Contains(out, "Fig. 1") || !strings.Contains(out, "128-512") {
		t.Error("render incomplete")
	}
}

func TestTable1(t *testing.T) {
	r, err := Table1Characterization(testProfile(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byApp := map[string]Table1Row{}
	for _, row := range r.Rows {
		byApp[row.App] = row
		if row.MPIPercent <= 0 || row.MPIPercent >= 100 {
			t.Errorf("%s MPI%% = %.1f", row.App, row.MPIPercent)
		}
		if row.TopCalls[0] == "" {
			t.Errorf("%s has no top call", row.App)
		}
	}
	// Structural checks from the paper's Table I.
	if byApp["Rayleigh"].P2PAvgBytes > byApp["HACC"].P2PAvgBytes {
		t.Error("Rayleigh should have less p2p than HACC")
	}
	if byApp["Qbox"].TopCalls[0] != "MPI_Alltoallv" {
		t.Errorf("Qbox top call = %s", byApp["Qbox"].TopCalls[0])
	}
	if !strings.Contains(r.Render(), "Table I") {
		t.Error("render incomplete")
	}
}

// milcStudy runs the production study over MILC alone, or over MILC
// and MILCREORDER with reorder set: the MILC part of the Table II
// campaign that Figs. 2, 5 and 6 derive from.
func milcStudy(t *testing.T, p Profile, seed int64, reorder bool) *Table2Result {
	t.Helper()
	list := []apps.App{apps.MILC{}}
	if reorder {
		list = append(list, apps.MILC{Reorder: true})
	}
	t2, err := p.productionStudy(list, seed)
	if err != nil {
		t.Fatal(err)
	}
	return t2
}

func TestFig2(t *testing.T) {
	t2 := milcStudy(t, testProfile(), 3, true)
	r := Fig2FromSamples(t2.Nodes, t2.Samples)
	for _, app := range []string{"MILC", "MILCREORDER"} {
		for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
			ms := r.PerApp[app][mode]
			if ms.N == 0 || ms.Mean <= 0 {
				t.Fatalf("%s/%s stats empty: %+v", app, mode, ms)
			}
		}
	}
	if !strings.Contains(r.Render(), "improvement") {
		t.Error("render incomplete")
	}
}

func TestFig3AndFig4(t *testing.T) {
	p := testProfile()
	r, err := Fig3GroupsSpanned(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 2 {
		t.Fatalf("apps = %v", r.Apps)
	}
	for _, app := range r.Apps {
		for _, nodes := range r.Sizes {
			pts := r.Points[app][nodes]
			if len(pts) != 2*p.Runs {
				t.Fatalf("%s@%d: %d points, want %d", app, nodes, len(pts), 2*p.Runs)
			}
			for i := 1; i < len(pts); i++ {
				if pts[i].Groups < pts[i-1].Groups {
					t.Fatal("points not ordered by groups")
				}
			}
		}
	}
	if !strings.Contains(r.Render(), "groups") {
		t.Error("render incomplete")
	}

	c, err := Fig4CoriGroupsSpanned(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Machine != "Cori" || len(c.Apps) != 1 {
		t.Fatalf("cori result: %+v", c.Apps)
	}
	if !testing.Short() {
		checkGolden(t, "fig3", r.Render())
		checkGolden(t, "fig4", c.Render())
	}
}

func TestFig5Fig6(t *testing.T) {
	p := testProfile()
	b := Fig5FromSamples(milcStudy(t, p, 6, false).Samples)
	if len(b.Runs) != 2*p.Runs {
		t.Fatalf("breakdown runs = %d", len(b.Runs))
	}
	for _, run := range b.Runs {
		if run.Compute <= 0 {
			t.Fatal("no compute time in breakdown")
		}
		if run.Parts["MPI_Allreduce"] <= 0 {
			t.Fatal("no allreduce share")
		}
	}
	if !strings.Contains(b.Render(), "Allreduce") {
		t.Error("render incomplete")
	}

	f6 := Fig6FromTable2(milcStudy(t, p, 7, false))
	for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
		if len(f6.Ratios[mode]) == 0 {
			t.Fatalf("no ratios for %s", mode)
		}
	}
	if !strings.Contains(f6.Render(), "Proc_req") {
		t.Error("render incomplete")
	}
}

func TestTable2Fig7Fig8(t *testing.T) {
	p := testProfile()
	t2, err := Table2AllApps(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 6 {
		t.Fatalf("rows = %d", len(t2.Rows))
	}
	for _, row := range t2.Rows {
		if row.MeanAD0 <= 0 || row.MeanAD3 <= 0 {
			t.Fatalf("%s means: %+v", row.App, row)
		}
	}
	if !strings.Contains(t2.Render(), "Table II") {
		t.Error("render incomplete")
	}

	f7 := Fig7NormalizedAllApps(t2)
	if len(f7.Order) != 6 {
		t.Fatalf("fig7 apps = %d", len(f7.Order))
	}
	if !strings.Contains(f7.Render(), "Fig. 7") {
		t.Error("render incomplete")
	}

	f8 := Fig8HACCBreakdown(t2)
	if len(f8.Runs) == 0 {
		t.Fatal("fig8 has no HACC runs")
	}
	if !strings.Contains(f8.Render(), "HACC") {
		t.Error("render incomplete")
	}
}

func TestFig9(t *testing.T) {
	r, err := Fig9ControlledAllModes(testProfile(), 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []routing.Mode{routing.AD0, routing.AD1, routing.AD2, routing.AD3} {
		if len(r.Z[mode]) == 0 {
			t.Fatalf("no samples for %s", mode)
		}
	}
	if !strings.Contains(r.Render(), "AD2") {
		t.Error("render incomplete")
	}
	if !testing.Short() {
		checkGolden(t, "fig9", r.Render())
	}
}

func TestFig10Fig12(t *testing.T) {
	p := testProfile()
	f10, err := Fig10MILCEnsembleCounters(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
		ec := f10.PerMode[mode]
		if ec.Totals.TotalFlits() == 0 {
			t.Fatalf("%s: no flits", mode)
		}
		if ec.MeanRuntime <= 0 {
			t.Fatalf("%s: no runtime", mode)
		}
	}
	if !strings.Contains(f10.Render(), "Fig. 10") {
		t.Error("render incomplete")
	}

	f12, err := Fig12HACCEnsembleCounters(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	if f12.App != "HACC" || !strings.Contains(f12.Render(), "Fig. 12") {
		t.Error("fig12 wrong app or render")
	}
}

func TestFig11(t *testing.T) {
	r, err := Fig11RegimeComparison(testProfile(), 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
		for _, regime := range []string{
			RegimeProduction, RegimeIsolated,
			RegimeControlledCompact, RegimeControlledDisperse,
		} {
			if r.Ratios[mode][regime].Count() == 0 {
				t.Fatalf("%s/%s empty", mode, regime)
			}
		}
	}
	if !strings.Contains(r.Render(), "isolated") {
		t.Error("render incomplete")
	}
}

func TestFig13Fig14(t *testing.T) {
	r, err := Fig13DefaultSwitch(testProfile(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if r.Before.Totals.TotalFlits() == 0 || r.After.Totals.TotalFlits() == 0 {
		t.Fatal("campaigns produced no traffic")
	}
	if r.Before.Windows < 2 {
		t.Fatalf("windows = %d", r.Before.Windows)
	}
	if r.Before.NICLatencies.Count() == 0 {
		t.Fatal("no latency samples")
	}
	if !strings.Contains(r.Render(), "Fig. 13") {
		t.Error("render incomplete")
	}

	f14 := Fig14LatencyPercentiles(r)
	if len(f14.BeforeUS) != len(fig14Percentiles) {
		t.Fatal("percentile count mismatch")
	}
	for i, v := range f14.BeforeUS {
		if v <= 0 {
			t.Fatalf("percentile %g nonpositive", fig14Percentiles[i])
		}
	}
	if !strings.Contains(f14.Render(), "P99.99") {
		t.Error("render incomplete")
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{Quick(), Standard()} {
		if p.Runs < 2 || p.NodesMedium <= 0 || p.CampaignWindow <= 0 {
			t.Errorf("%s profile incomplete: %+v", p.Name, p)
		}
		if p.iterationsFor("NoSuchApp") <= 0 || p.scaleFor("NoSuchApp") <= 0 {
			t.Error("fallbacks broken")
		}
	}
}

func TestAblations(t *testing.T) {
	p := testProfile()
	p.Runs = 1 // smoke scale

	sweeps := []struct {
		name   string
		run    func() (*AblationResult, error)
		points int
	}{
		{"candidates", func() (*AblationResult, error) { return AblationCandidates(p, routing.AD0, 20) }, 3},
		{"buffers", func() (*AblationResult, error) { return AblationBufferDepth(p, routing.AD0, 21) }, 3},
		{"estimates", func() (*AblationResult, error) { return AblationEstimateQuality(p, routing.AD0, 22) }, 3},
		{"baselines", func() (*AblationResult, error) { return AblationBaselines(p, 24) }, 6},
	}
	for _, sw := range sweeps {
		r, err := sw.run()
		if err != nil || len(r.Points) != sw.points {
			t.Fatalf("%s: %v %v", sw.name, r, err)
		}
		// A sweep whose settings change nothing measures nothing: no two
		// points may be equal once their labels are cleared.
		for i, a := range r.Points {
			for _, b := range r.Points[:i] {
				la, lb := a.Label, b.Label
				a.Label, b.Label = "", ""
				if a == b {
					t.Errorf("%s: points %s and %s are identical: %+v", sw.name, lb, la, a)
				}
			}
		}
		for _, pt := range r.Points {
			if pt.MeanRuntime <= 0 {
				t.Fatalf("%s: point %s has no runtime", sw.name, pt.Label)
			}
		}
		if sw.name == "baselines" && !strings.Contains(r.Render(), "VAL") {
			t.Error("render incomplete")
		}
	}
}
