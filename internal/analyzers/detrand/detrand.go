// Package detrand implements the simlint determinism analyzer.
//
// The reproduction's headline guarantee is bit-identical results for a
// given seed, sequential or parallel (DESIGN.md "Determinism"), and the
// service's is byte-identical rendered artifacts — figure and table
// text, HTTP response bodies, /metrics exposition — across worker
// counts, pool warmth, and process restarts. detrand is one module pass
// with two scopes, and reports each site once.
//
// Inside the simulation-state packages (Scope) it outlaws:
//
//   - time.Now — wall-clock time in model code makes results depend on
//     the host; virtual time comes from sim.Kernel.Now.
//   - the global math/rand functions (rand.Intn, rand.Float64, ...) —
//     they draw from process-wide shared state, so any second consumer
//     (another worker, a test) perturbs the stream. Every random draw
//     must come from an explicitly threaded *rand.Rand.
//   - ranging over a map, and unsorted maps.Keys / maps.Values /
//     maps.All reads — iteration order is randomized per run, so any
//     map iteration whose body can reach simulation state is a
//     nondeterminism seed. Order-insensitive reductions are suppressed
//     site by site with //simlint:allow detrand <reason>.
//   - go and select statements — scheduling order is the runtime's
//     choice. All concurrency is quarantined in internal/parallel,
//     whose merge discipline makes worker order unobservable; sim's
//     coroutine handoff (strictly one runnable goroutine) carries an
//     allow annotation.
//
// Outside Scope, the map-iteration rules follow computed reachability
// instead, because a map range three calls below a table writer
// reorders rows even when the iteration and the writer live in
// different packages:
//
//  1. Sink roots are the functions that render output — structurally,
//     any module function with an io.Writer, http.ResponseWriter,
//     *bytes.Buffer, or *strings.Builder parameter and any Render()
//     string method, plus the explicit value-returning renderers in
//     ExtraSinks.
//  2. Every function statically reachable from a sink root can execute
//     during rendering; a nondeterministic iteration there can reach
//     output bytes, and is flagged with the witness root.
//
// There the sorted-keys idiom stays silent without annotation: a range
// whose body only collects keys into a slice that the function later
// sorts, and maps.Keys/Values/All wrapped directly in slices.Sorted*.
// Inside Scope only the slices.Sorted* wrapper is exempt.
//
// Soundness caveat: reachability follows static edges only — dynamic
// dispatch through interfaces or func values contributes nothing, so a
// renderer invoked only through an interface needs its own writer-ish
// parameter (it then roots its own reachability) or an ExtraSinks
// entry.
package detrand

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analyzers/analysis"
)

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock time, global math/rand state, map iteration, and goroutine " +
		"scheduling in simulation packages, and map-iteration order reaching rendered output",
	RunModule: run,
}

// Scope lists the module-relative package paths (and their subtrees)
// holding simulation state, where every determinism rule applies.
var Scope = []string{
	"internal/sim",
	"internal/network",
	"internal/routing",
	"internal/apps",
	"internal/mpi",
	"internal/workload",
	"internal/core",
}

// WriterTypes are the parameter types that make a function a sink root:
// storage that rendered bytes flow into.
var WriterTypes = map[string]bool{
	"io.Writer":               true,
	"net/http.ResponseWriter": true,
	"*bytes.Buffer":           true,
	"*strings.Builder":        true,
}

// ExtraSinks names value-returning renderers the structural rule cannot
// see (they build output without taking a writer and are not Render()
// string methods). Entries are
// module-relative: "pkg/path.Func" for functions, "pkg/path.Recv.Func"
// for methods.
var ExtraSinks = []string{
	"internal/service.buildResponse",
	"internal/service.marshalResponse",
	"internal/service.metrics.render",
	"internal/service.errorBody",
	// viz renders into local strings.Builders and returns the text, so
	// the structural writer-parameter rule never sees it.
	"internal/viz.Sparkline",
	"internal/viz.HeatStrip",
	"internal/viz.GroupHeatmap",
	"internal/viz.Histogram",
}

// randConstructors are the math/rand package-level functions that build
// explicit generators rather than touching the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// inScope reports whether the package path falls under any entry of
// Scope (entries are matched as whole path segments, with or without
// the module-path prefix).
func inScope(pkgPath string) bool {
	for _, s := range Scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) ||
			strings.HasPrefix(pkgPath, s+"/") || strings.Contains(pkgPath, "/"+s+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.ModulePass) error {
	m := pass.Module
	for _, pkg := range m.Pkgs {
		if !inScope(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			checkScoped(pass, pkg.Info, file)
		}
	}
	for fn, root := range reach(m) {
		pkg, fd := m.Graph.PkgOf[fn], m.Graph.Decls[fn]
		if pkg == nil || fd.Body == nil || inScope(pkg.Path) {
			continue
		}
		checkReachable(pass, pkg.Info, fd, root)
	}
	return nil
}

// checkScoped applies every determinism rule to one simulation-state
// file.
func checkScoped(pass *analysis.ModulePass, info *types.Info, file *ast.File) {
	analysis.WithParents(file, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			checkSelector(pass, info, x)
		case *ast.RangeStmt:
			if isMap(info, x.X) {
				pass.Reportf(x.Pos(), "%s", rangeMsg(nil))
			}
		case *ast.CallExpr:
			if isMapsOrderRead(info, x) && !wrappedInSortedCollect(info, stack) {
				pass.Reportf(x.Pos(), "%s", readMsg(nil))
			}
		case *ast.GoStmt:
			pass.Reportf(x.Pos(),
				"go statement outside internal/parallel: goroutine scheduling is nondeterministic")
		case *ast.SelectStmt:
			pass.Reportf(x.Pos(),
				"select statement outside internal/parallel: case choice is nondeterministic")
		}
		return true
	})
}

// checkReachable applies the two iteration-order rules, with the
// sorted-keys exemptions, to one sink-reachable function.
func checkReachable(pass *analysis.ModulePass, info *types.Info, fd *ast.FuncDecl, root *types.Func) {
	analysis.WithParents(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if isMap(info, x.X) && !sortedKeysIdiom(info, x, fd) {
				pass.Reportf(x.Pos(), "%s", rangeMsg(root))
			}
		case *ast.CallExpr:
			if isMapsOrderRead(info, x) && !wrappedInSortedCollect(info, stack) {
				pass.Reportf(x.Pos(), "%s", readMsg(root))
			}
		}
		return true
	})
}

// where phrases why an iteration order matters: it is simulation state
// (root nil), or it can reach output through root.
func where(root *types.Func) string {
	if root == nil {
		return "is nondeterministic"
	}
	return "can reach rendered output (reachable from " + root.Name() + ")"
}

func rangeMsg(root *types.Func) string {
	return "map iteration order " + where(root) +
		"; iterate sorted keys or annotate an order-insensitive reduction"
}

func readMsg(root *types.Func) string {
	return "unsorted map-key read " + where(root) +
		"; wrap in slices.Sorted or annotate an order-insensitive use"
}

func isMap(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkSelector flags uses of time.Now and of math/rand's global-state
// package-level functions.
func checkSelector(pass *analysis.ModulePass, info *types.Info, sel *ast.SelectorExpr) {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(sel.Pos(),
				"time.Now in simulation code: results would depend on the host clock; use the kernel's virtual time")
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"global math/rand.%s draws from shared process-wide state; use an explicit per-run *rand.Rand stream", fn.Name())
		}
	}
}

// sinkRoots returns the module's output sink roots, sorted by position
// for deterministic traversal and witness attribution.
func sinkRoots(m *analysis.Module) []*types.Func {
	extra := map[string]bool{}
	for _, s := range ExtraSinks {
		extra[s] = true
	}
	var roots []*types.Func
	for fn, fd := range m.Graph.Decls {
		if fd.Body != nil && (isStructuralSink(fn) || extra[sinkName(m, fn)]) {
			roots = append(roots, fn)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Pos() < roots[j].Pos() })
	return roots
}

// isStructuralSink reports whether fn has a writer-ish parameter or is a
// value-returning renderer: a Render() string method.
func isStructuralSink(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	params, results := sig.Params(), sig.Results()
	if sig.Recv() != nil && fn.Name() == "Render" && params.Len() == 0 &&
		results.Len() == 1 && results.At(0).Type().String() == "string" {
		return true
	}
	for i := 0; i < params.Len(); i++ {
		if WriterTypes[params.At(i).Type().String()] {
			return true
		}
	}
	return false
}

// sinkName renders fn in ExtraSinks' module-relative form.
func sinkName(m *analysis.Module, fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	name := strings.TrimPrefix(fn.Pkg().Path(), m.Loader.ModulePath+"/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// reach computes every function statically reachable from the module's
// sink roots, with the (position-first) witness root that reached it.
func reach(m *analysis.Module) map[*types.Func]*types.Func {
	witness := map[*types.Func]*types.Func{}
	for _, root := range sinkRoots(m) {
		stack := []*types.Func{root}
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, seen := witness[fn]; seen {
				continue
			}
			witness[fn] = root
			for _, site := range m.Graph.Sites[fn] {
				if site.Callee != nil && m.Graph.Decls[site.Callee] != nil {
					stack = append(stack, site.Callee)
				}
			}
		}
	}
	return witness
}

// sortedKeysIdiom recognizes the canonical deterministic pattern: the
// range body does nothing but append the key to a slice, and the
// function later passes that slice to a sort call — order randomness
// dies in the sort.
func sortedKeysIdiom(info *types.Info, rng *ast.RangeStmt, fd *ast.FuncDecl) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	lhs := analysis.RootIdent(assign.Lhs[0])
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || lhs == nil {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) != 2 {
		return false
	}
	dst := analysis.RootIdent(call.Args[0])
	src, okSrc := ast.Unparen(call.Args[1]).(*ast.Ident)
	if dst == nil || !okSrc {
		return false
	}
	keyObj := analysis.ObjectOf(info, key)
	if keyObj == nil || analysis.ObjectOf(info, src) != keyObj {
		return false
	}
	slice := analysis.ObjectOf(info, lhs)
	if slice == nil || analysis.ObjectOf(info, dst) != slice {
		return false
	}
	// The collected slice must be sorted somewhere in this function.
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted {
			return !sorted
		}
		if !isSortCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			if root := analysis.RootIdent(arg); root != nil && analysis.ObjectOf(info, root) == slice {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// isSortCall matches package-level sort.* and slices.Sort* calls.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calledFunc(info, call)
	if fn == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// isMapsOrderRead matches maps.Keys / maps.Values / maps.All, whose
// iteration order is randomized like a direct range.
func isMapsOrderRead(info *types.Info, call *ast.CallExpr) bool {
	fn := calledFunc(info, call)
	if fn == nil || fn.Pkg().Path() != "maps" {
		return false
	}
	switch fn.Name() {
	case "Keys", "Values", "All":
		return true
	}
	return false
}

// wrappedInSortedCollect reports whether the call's immediate consumer
// is slices.Sorted / slices.SortedFunc / slices.SortedStableFunc.
func wrappedInSortedCollect(info *types.Info, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	outer, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calledFunc(info, outer)
	return fn != nil && fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sorted")
}

// calledFunc resolves a pkg.Func call to its package-level function, or
// nil.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	return fn
}
