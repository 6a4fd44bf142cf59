// Package analyzers assembles the simlint suite: the custom static
// checks that turn this repository's determinism, reset-coverage and
// worker-isolation conventions into build-time errors. See DESIGN.md,
// "Static invariants", for each analyzer's contract and annotation
// grammar. The zero-allocation hot path is gated by compiler output
// (scripts/allocs.sh) and the AllocsPerRun tests, not by an analyzer.
package analyzers

import (
	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/detrand"
	"repro/internal/analyzers/resetcheck"
	"repro/internal/analyzers/sharecheck"
)

// All is the suite cmd/simlint runs: one analyzer per invariant, each
// run once over the loaded module. detrand (determinism) covers the
// simulation-state scope plus every function reachable from an output
// sink; resetcheck (warm-reuse reset coverage) and sharecheck (worker
// isolation) check each package's declarations in turn.
var All = []*analysis.Analyzer{
	detrand.Analyzer,
	resetcheck.Analyzer,
	sharecheck.Analyzer,
}
