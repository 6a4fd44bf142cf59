package hotpath_test

import (
	"testing"

	"repro/internal/analyzers/atest"
	"repro/internal/analyzers/hotpath"
)

// TestHotpath runs the analyzer over one fixture package holding an
// annotated function committing every forbidden construct (flagged.go)
// and an annotated function using every allowed pattern (clean.go) —
// including the append-style buffer pipeline and call-only closures the
// routing engine relies on — plus hot callers of unannotated helpers
// that box on return and on assignment.
func TestHotpath(t *testing.T) {
	atest.Run(t, "testdata", "hot", hotpath.Analyzer)
}

// TestHotpathCallees pins the transitive half: hot functions whose own
// bodies are clean are flagged at call sites reaching allocating,
// boxing, or formatting callees — through two levels of helpers, across
// a package boundary, and along a chain crossing two (which holds only
// if summaries are filled in dependency order) — while clean helpers,
// other hot functions, and cold-with-reason callees stay silent.
func TestHotpathCallees(t *testing.T) {
	atest.Run(t, "testdata", "hotcalls", hotpath.Analyzer)
}
