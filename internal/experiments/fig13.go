package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ldms"
	"repro/internal/mpi"
	"repro/internal/network"
	"repro/internal/parallel"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
)

// CampaignWindowStats summarizes one production era (before or after the
// default-routing change).
type CampaignWindowStats struct {
	Mode    routing.Mode
	Totals  network.ClassTotals
	Windows int
	// Per-window network flits and stalls (the paper's Fig. 13 time
	// series; one point per LDMS window).
	WindowFlits  []float64
	WindowStalls []float64
	// RouterRatios pools the per-router per-window ratio distribution and
	// NICLatencies the per-NIC mean-latency samples (Fig. 14 input). Both
	// are streamed by the LDMS daemon under Options.Stream, so the
	// campaign never materializes the raw sample slices.
	RouterRatios *stats.Agg
	NICLatencies *stats.Agg
}

// Fig13Result compares the two eras.
type Fig13Result struct {
	Before, After CampaignWindowStats
}

// Fig13DefaultSwitch reproduces the paper's Fig. 13 (and collects the
// Fig. 14 latency samples): two production campaigns with every job on
// the machine using the era's default mode — AD0 before, AD3 after. The
// eras are independent whole-machine campaigns and fan out across the
// worker pool; results are stored in era order.
func Fig13DefaultSwitch(p Profile, seed int64) (*Fig13Result, error) {
	ms, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	modes := []routing.Mode{routing.AD0, routing.AD3}
	var eras [2]CampaignWindowStats
	err = parallel.ReduceContext(context.Background(), len(ms), len(modes),
		func(worker, idx int) (CampaignWindowStats, error) {
			bg := core.DefaultBackground()
			bg.Env = mpi.UniformEnv(modes[idx])
			camp, err := ms[worker].RunCampaign(p.CampaignWindow, *bg, ldms.Options{
				Period:             p.LDMSPeriod,
				RecordRouterRatios: true,
				RecordNICLatency:   true,
				Stream:             true,
			}, seed)
			if err != nil {
				return CampaignWindowStats{}, err
			}
			st := CampaignWindowStats{Mode: modes[idx], Totals: camp.Global}
			for _, s := range camp.LDMS.Samples() {
				var flits uint64
				var stalls float64
				for _, class := range topology.NetworkTileClasses {
					flits += s.Totals.Flits[class]
					stalls += s.Totals.Stalls[class]
				}
				st.WindowFlits = append(st.WindowFlits, float64(flits))
				st.WindowStalls = append(st.WindowStalls, stalls)
			}
			st.Windows = len(st.WindowFlits)
			st.RouterRatios = camp.LDMS.RouterRatioAgg()
			st.NICLatencies = camp.LDMS.NICLatencyAgg()
			return st, nil
		},
		func(idx int, st CampaignWindowStats) { eras[idx] = st })
	if err != nil {
		return nil, err
	}
	return &Fig13Result{Before: eras[0], After: eras[1]}, nil
}

// NetworkRatio returns an era's overall network-tile stalls-to-flits.
func (s CampaignWindowStats) NetworkRatio() float64 {
	var flits uint64
	var stalls float64
	for _, class := range topology.NetworkTileClasses {
		flits += s.Totals.Flits[class]
		stalls += s.Totals.Stalls[class]
	}
	if flits == 0 {
		return 0
	}
	return stalls / float64(flits)
}

// Render prints the before/after comparison.
func (r *Fig13Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 13 — system-wide counters before (AD0) and after (AD3) the default change\n")
	for _, st := range []CampaignWindowStats{r.Before, r.After} {
		ps := st.RouterRatios.Percentiles([]float64{50, 95})
		fmt.Fprintf(&b, "%-4s windows=%-4d netFlits=%-14.3g netStalls=%-14.3g ratio=%.3f routerRatio p50=%.3f p95=%.3f\n",
			st.Mode, st.Windows,
			stats.Mean(st.WindowFlits)*float64(st.Windows),
			stats.Mean(st.WindowStalls)*float64(st.Windows),
			st.NetworkRatio(),
			ps[0], ps[1])
	}
	b0, a3 := r.Before.NetworkRatio(), r.After.NetworkRatio()
	if b0 > 0 {
		fmt.Fprintf(&b, "network stalls-to-flits change: %.1f%% (paper: marked improvement, ~2x)\n",
			100*(b0-a3)/b0)
	}
	// Per-class table.
	fmt.Fprintf(&b, "%-10s %-12s %-12s\n", "tile", "AD0 ratio", "AD3 ratio")
	for class := topology.TileClass(0); class < topology.NumTileClasses; class++ {
		fmt.Fprintf(&b, "%-10s %-12.3f %-12.3f\n", class,
			r.Before.Totals.Ratio(class), r.After.Totals.Ratio(class))
	}
	return b.String()
}
