// Package analyzers assembles the simlint suite: the custom static
// checks that turn this repository's determinism, reset-coverage,
// hot-path, and worker-isolation conventions into build-time errors.
// See DESIGN.md, "Static invariants", for each analyzer's contract and
// annotation grammar.
package analyzers

import (
	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/detrand"
	"repro/internal/analyzers/hotpath"
	"repro/internal/analyzers/resetcheck"
	"repro/internal/analyzers/sharecheck"
)

// All is the suite cmd/simlint runs, in reporting order: one analyzer
// per invariant. detrand (determinism) is a module pass over the
// simulation-state scope plus every function reachable from an output
// sink; hotpath (zero allocation) and sharecheck (worker isolation)
// compose per-function facts over the module call graph; resetcheck
// (warm-reuse reset coverage) is per package.
var All = []*analysis.Analyzer{
	detrand.Analyzer,
	resetcheck.Analyzer,
	hotpath.Analyzer,
	sharecheck.Analyzer,
}
