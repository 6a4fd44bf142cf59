package experiments

import (
	"fmt"
	"strings"

	"repro/internal/mpi"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
)

// BreakdownRun is one run's stacked runtime decomposition (the paper's
// Figs. 5 and 8): compute plus the three dominant MPI interfaces plus the
// rest, averaged per rank.
type BreakdownRun struct {
	Mode    routing.Mode
	Total   float64
	Compute float64
	Parts   [mpi.NumCalls]float64 // dominant calls; zero elsewhere
	Other   float64
}

// BreakdownResult holds per-run decompositions for one app.
type BreakdownResult struct {
	App      string
	Figure   string
	Dominant []mpi.Call
	Runs     []BreakdownRun
}

// breakdownFromSamples converts production samples into stacked
// decompositions using the app-wide dominant calls. It reads the compact
// Report's profile, whose per-call times are integer sim.Time.
func breakdownFromSamples(app, figure string, dominant []mpi.Call, samples []Sample) *BreakdownResult {
	res := &BreakdownResult{App: app, Figure: figure, Dominant: dominant}
	for _, s := range samples {
		if s.App != app {
			continue
		}
		prof := s.Report.Profile
		ranks := float64(s.Report.Ranks)
		run := BreakdownRun{
			Mode:    s.Mode,
			Total:   s.RuntimeSec,
			Compute: prof.ComputeTime.Seconds() / ranks,
		}
		var accounted sim.Time
		for _, c := range dominant {
			t := prof.ByCall[c].Time
			run.Parts[c] = t.Seconds() / ranks
			accounted += t
		}
		run.Other = (prof.MPITime() - accounted).Seconds() / ranks
		res.Runs = append(res.Runs, run)
	}
	return res
}

// Render prints one stacked bar per run.
func (r *BreakdownResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s runtime decomposition per run (seconds, per-rank mean)\n", r.Figure, r.App)
	header := fmt.Sprintf("%-5s %-9s %-9s", "mode", "total", "compute")
	for _, c := range r.Dominant {
		header += fmt.Sprintf(" %-13s", c.Short())
	}
	fmt.Fprintf(&b, "%s %-9s\n", header, "otherMPI")
	for _, run := range r.Runs {
		row := fmt.Sprintf("%-5s %-9.4f %-9.4f", run.Mode, run.Total, run.Compute)
		for _, c := range r.Dominant {
			row += fmt.Sprintf(" %-13.4f", run.Parts[c])
		}
		fmt.Fprintf(&b, "%s %-9.4f\n", row, run.Other)
	}
	// Mode-level MPI means: the paper's claim is that the MPI share
	// shrinks under AD3.
	mpiTimes := map[routing.Mode][]float64{}
	for _, run := range r.Runs {
		mpiTotal := run.Other
		for _, c := range r.Dominant {
			mpiTotal += run.Parts[c]
		}
		mpiTimes[run.Mode] = append(mpiTimes[run.Mode], mpiTotal)
	}
	for _, mode := range []routing.Mode{routing.AD0, routing.AD3} {
		if vs := mpiTimes[mode]; len(vs) > 0 {
			fmt.Fprintf(&b, "mean MPI time %s: %.4fs\n", mode, stats.Mean(vs))
		}
	}
	return b.String()
}

// Fig5FromSamples reproduces the paper's Fig. 5 from production samples
// (Table II's campaign): MILC runtime split into Compute, MPI_Allreduce,
// MPI_Wait(all), MPI_Isend and other MPI, one bar per run, AD0 vs AD3.
func Fig5FromSamples(samples []Sample) *BreakdownResult {
	return breakdownFromSamples("MILC", "Fig. 5",
		[]mpi.Call{mpi.Allreduce, mpi.Waitall, mpi.Isend}, samples)
}
