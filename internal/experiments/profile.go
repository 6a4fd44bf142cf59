// Package experiments contains one harness per table and figure in the
// paper's evaluation. Each harness runs the required simulations and
// returns a result type whose Render method prints the same rows/series
// the paper reports, so `cmd/reproduce` (and the benchmarks in the repo
// root) regenerate the full evaluation. Figs. 2, 5, 6, 7 and 8 derive
// from the Table II production campaign rather than running their own.
//
// Absolute numbers are simulated seconds on a proportionally scaled
// machine (see topology.ThetaMiniConfig); the quantities compared against
// the paper are the shapes: who wins, by what factor, and where the
// crossovers fall. EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Profile scales an experiment campaign: Quick is cmd/reproduce's
// default, Standard its larger scale, and Bench the smallest, used by the
// repo-level benchmarks and the tests.
type Profile struct {
	Name string

	// Theta / Cori machine configurations (scaled).
	Theta topology.Config
	Cori  topology.Config

	// Scaled equivalents of the paper's 128/256/512-node jobs.
	NodesSmall, NodesMedium, NodesLarge int
	// Cori job sizes (Cori-mini has more groups, same group size).
	CoriNodesMedium int

	// Runs per routing mode for production-style experiments. The paper
	// uses >30; scale this with available time.
	Runs int

	// App iteration counts and message-size scale.
	Iterations map[string]int
	Scale      map[string]float64

	// Background noise warmup before the instrumented job starts.
	Warmup sim.Time

	// Campaign length for the system-wide before/after experiments.
	CampaignWindow sim.Time
	LDMSPeriod     sim.Time

	// EnsembleJobs is the job count for controlled ensemble experiments
	// (the paper: eight 512-node or sixteen 256-node jobs).
	EnsembleLarge  int
	EnsembleMedium int

	// Workers is the fan-out for independent seeded runs: each campaign's
	// runs are distributed over this many OS-level workers, one Machine
	// per worker (the DES kernel stays single-threaded per run). Results
	// are merged in seed order, so every value — including <= 1, which
	// runs strictly sequentially — produces identical output.
	Workers int
}

// workers clamps the fan-out to at least one.
func (p Profile) workers() int {
	if p.Workers < 1 {
		return 1
	}
	return p.Workers
}

// Quick returns the smallest profile that still exhibits every effect;
// cmd/reproduce runs it by default.
func Quick() Profile {
	return Profile{
		Name:  "quick",
		Theta: topology.ThetaMiniConfig(),
		Cori:  topology.CoriMiniConfig(),
		// Every size gives the 4D grid all-even dimensions, but that is
		// not enough for MILCREORDER's blocked layout to differ from
		// MILC's: at 16 ([2 2 2 2]) and 32 ([4 2 2 2]) nodes only the
		// first dimension holds more than one block, the layout is the
		// identity, and the two MILC variants coincide. They differ at
		// 64 nodes ([4 4 2 2]).
		NodesSmall:      16,
		NodesMedium:     32,
		NodesLarge:      64,
		CoriNodesMedium: 32,
		Runs:            4,
		Iterations: map[string]int{
			"MILC": 8, "MILCREORDER": 8, "Nek5000": 6,
			"HACC": 2, "Qbox": 6, "Rayleigh": 2,
		},
		Scale: map[string]float64{
			"MILC": 0.25, "MILCREORDER": 0.25, "Nek5000": 0.25,
			"HACC": 0.12, "Qbox": 0.25, "Rayleigh": 0.02,
		},
		Warmup:         sim.Millisecond,
		CampaignWindow: 30 * sim.Millisecond,
		LDMSPeriod:     5 * sim.Millisecond,
		EnsembleLarge:  4,
		EnsembleMedium: 8,
	}
}

// Standard returns cmd/reproduce's larger profile (-profile standard):
// enough runs for statistics, still minutes not hours.
func Standard() Profile {
	p := Quick()
	p.Name = "standard"
	p.Runs = 12
	p.Iterations = map[string]int{
		"MILC": 12, "MILCREORDER": 12, "Nek5000": 10,
		"HACC": 3, "Qbox": 10, "Rayleigh": 3,
	}
	p.CampaignWindow = 80 * sim.Millisecond
	p.LDMSPeriod = 8 * sim.Millisecond
	p.EnsembleLarge = 6
	p.EnsembleMedium = 12
	return p
}

// thetaPool builds one Theta machine per worker for parallel campaigns.
func (p Profile) thetaPool() ([]*core.Machine, error) {
	return newMachines(p.Theta, p.workers())
}

// coriPool builds one Cori machine per worker.
func (p Profile) coriPool() ([]*core.Machine, error) {
	return newMachines(p.Cori, p.workers())
}

// iterationsFor returns the app's iteration count under this profile.
func (p Profile) iterationsFor(app string) int {
	if n, ok := p.Iterations[app]; ok {
		return n
	}
	return 4
}

// scaleFor returns the app's message-size scale under this profile.
func (p Profile) scaleFor(app string) float64 {
	if s, ok := p.Scale[app]; ok {
		return s
	}
	return 0.1
}

// Bench returns the profile used by the repo-level benchmarks: the
// smallest scale that still exercises every mechanism, so a full
// `go test -bench=.` pass stays in the minutes.
func Bench() Profile {
	p := Quick()
	p.Name = "bench"
	p.Runs = 2
	// MILCREORDER's layout is the identity at all three sizes (8 has an
	// odd dimension; 16 and 32 have one block per dimension but the
	// first), so its rows coincide with MILC's here.
	p.NodesSmall = 8
	p.NodesMedium = 16
	p.NodesLarge = 32
	p.CoriNodesMedium = 16
	p.Iterations = map[string]int{
		"MILC": 3, "MILCREORDER": 3, "Nek5000": 2,
		"HACC": 1, "Qbox": 2, "Rayleigh": 1,
	}
	p.Scale = map[string]float64{
		"MILC": 0.08, "MILCREORDER": 0.08, "Nek5000": 0.08,
		"HACC": 0.05, "Qbox": 0.08, "Rayleigh": 0.01,
	}
	p.Warmup = 500 * sim.Microsecond
	p.CampaignWindow = 12 * sim.Millisecond
	p.LDMSPeriod = 3 * sim.Millisecond
	p.EnsembleLarge = 2
	p.EnsembleMedium = 4
	return p
}
