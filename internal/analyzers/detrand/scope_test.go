package detrand

import (
	"path/filepath"
	"testing"

	"repro/internal/analyzers/analysis"
)

// TestScopeDrift guards detrand's two hand-maintained name lists
// against renames over the real module: every ExtraSinks entry must
// resolve to a function, or a renamed renderer silently drops out of
// sink reachability; and every Scope entry must name an existing
// package, or a renamed simulation package silently leaves the scope.
func TestScopeDrift(t *testing.T) {
	moduleDir, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	roots, err := analysis.PackagePaths(moduleDir, "repro", []string{moduleDir + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) < 10 {
		t.Fatalf("found only %d module packages under %s; walk is broken", len(roots), moduleDir)
	}
	m, err := analysis.LoadModule(moduleDir, "repro", roots)
	if err != nil {
		t.Fatal(err)
	}

	resolved := map[string]bool{}
	for _, fn := range sinkRoots(m) {
		resolved[sinkName(m, fn)] = true
	}
	for _, entry := range ExtraSinks {
		if !resolved[entry] {
			t.Errorf("ExtraSinks entry %q matched no function in the module (renamed or deleted?)", entry)
		}
	}
	for _, scoped := range Scope {
		if m.Package("repro/"+scoped) == nil {
			t.Errorf("Scope entry %q names a package that no longer exists", scoped)
		}
	}
}
