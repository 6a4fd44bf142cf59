package sharecheck

import (
	"go/types"
	"path/filepath"
	"testing"

	"repro/internal/analyzers/analysis"
)

// TestWorkerFuncsDrift guards sharecheck's hand-maintained entry-point
// list against renames over the real module: every workerFuncs entry
// must name a function in repro/internal/parallel, or a renamed entry
// point silently drops its closures out of the worker-closure rule; and
// every exported parallel function taking a func(worker, index int)
// argument must be listed, or a new entry point's closures go unchecked.
func TestWorkerFuncsDrift(t *testing.T) {
	const parallelPath = "repro/internal/parallel"
	moduleDir, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	m, err := analysis.LoadModule(moduleDir, "repro", []string{parallelPath})
	if err != nil {
		t.Fatal(err)
	}
	pkg := m.Package(parallelPath)
	if pkg == nil {
		t.Fatalf("package %s not loaded", parallelPath)
	}
	scope := pkg.Types.Scope()
	for name := range workerFuncs {
		if _, ok := scope.Lookup(name).(*types.Func); !ok {
			t.Errorf("workerFuncs entry %q names no function in %s (renamed or deleted?)", name, parallelPath)
		}
	}
	for _, name := range scope.Names() {
		fn, ok := scope.Lookup(name).(*types.Func)
		if ok && fn.Exported() && takesWorkerFunc(fn) && !workerFuncs[name] {
			t.Errorf("%s.%s takes a func(worker, index int) argument but is missing from workerFuncs", parallelPath, name)
		}
	}
}

// takesWorkerFunc reports whether one of fn's parameters has the
// (worker, index) shape of a worker closure.
func takesWorkerFunc(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if isWorkerFunc(params.At(i).Type()) {
			return true
		}
	}
	return false
}
