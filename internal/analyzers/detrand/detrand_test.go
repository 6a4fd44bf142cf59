package detrand_test

import (
	"testing"

	"repro/internal/analyzers/atest"
	"repro/internal/analyzers/detrand"
)

// TestDetrandFlagsSimPackages runs the analyzer over a fixture package
// whose import path falls inside the simulation scope: every forbidden
// construct must be flagged, and an //simlint:allow annotation must
// silence its site.
func TestDetrandFlagsSimPackages(t *testing.T) {
	atest.Run(t, "testdata", "internal/sim", detrand.Analyzer)
}

// TestDetrandIgnoresOutOfScope runs the analyzer over a package outside
// the simulation scope using the same forbidden constructs; the fixture
// has no want comments, so any diagnostic fails the test.
func TestDetrandIgnoresOutOfScope(t *testing.T) {
	atest.Run(t, "testdata", "outofscope", detrand.Analyzer)
}

// TestDetrandReachableFromSinks runs the analyzer over a package outside
// the simulation scope whose map iteration is reachable from output
// sinks: ranges and unsorted key reads below a sink are flagged with the
// witness, while the sorted-keys idioms, allowed sites, and functions no
// sink reaches stay silent.
func TestDetrandReachableFromSinks(t *testing.T) {
	atest.Run(t, "testdata", "render", detrand.Analyzer)
}
