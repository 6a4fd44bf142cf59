// Package sharecheck implements the simlint static worker-isolation
// analyzer.
//
// The parallel runner's correctness argument is ownership, not locking:
// each worker goroutine owns its core.Machine outright, and the merge
// discipline makes scheduling order unobservable. Until now the only
// machine-sharing guard was dynamic — the pool's double-handout panic —
// which fires only on exercised paths. sharecheck makes the isolation
// rules build-time errors:
//
//  1. A variable captured by a `go func` closure must not be written
//     after the spawn (or anywhere in a loop enclosing the spawn):
//     post-spawn writes race with the goroutine's reads. Writes that
//     happen-before the spawn are initialization and stay silent.
//  2. A *core.Machine must never be captured by a goroutine closure —
//     neither a `go func` literal nor any closure handed to
//     parallel.ReduceContext.
//     Worker closures derive their machine by indexing a captured
//     []*core.Machine with the worker index (ms[worker]); capturing a
//     machine value, or indexing a captured machine slice by anything
//     other than the closure's worker parameter, shares one machine
//     between workers. A fold closure runs on whichever worker unblocks it and
//     has no worker parameter, so any machine it reaches is shared.
//  3. No package-level variable may hold a *core.Machine (directly or
//     inside a struct/slice/map/array/pointer): a global machine is
//     reachable from every goroutine at once.
//
// Deliberate exceptions — a mutex-guarded registry, a write the caller
// proves happens-after wg.Wait — are suppressed site by site with
// //simlint:allow sharecheck <reason>. Soundness caveats: machines
// reached through container structs (a captured pool) are vetted by the
// pool's own locking plus the dynamic double-handout gate, and writes
// hidden behind address-taken aliases are invisible here.
package sharecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analyzers/analysis"
)

// Analyzer is the sharecheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "sharecheck",
	Doc: "worker isolation: no post-spawn writes to goroutine-captured variables, " +
		"no *core.Machine captured by worker closures or stored in globals",
	Run: run,
}

// workerFuncs are the parallel-runner entry points whose func-literal
// arguments execute on worker goroutines.
var workerFuncs = map[string]bool{
	"ReduceContext": true,
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Module.Pkgs {
		for _, file := range pkg.Files {
			checkGlobals(pass, pkg.Info, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkFunc(pass, pkg, fd)
			}
		}
	}
	return nil
}

// checkGlobals enforces rule 3 over package-level var declarations.
func checkGlobals(pass *analysis.Pass, info *types.Info, file *ast.File) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if containsMachine(obj.Type(), map[types.Type]bool{}) {
					pass.Reportf(name.Pos(),
						"package-level variable %s holds a *core.Machine: machines must be owned by one worker or pool, never global state",
						name.Name)
				}
			}
		}
	}
}

// checkFunc enforces rules 1 and 2 inside one function declaration.
func checkFunc(pass *analysis.Pass, pkg *analysis.Package, fd *ast.FuncDecl) {
	analysis.WithParents(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				captured := capturedVars(pkg, lit)
				checkPostSpawnWrites(pass, pkg.Info, fd, x, lit, captured, stack)
				checkMachineCapture(pass, pkg.Info, lit, captured, nil, "goroutine closure")
			}
		case *ast.CallExpr:
			for _, rc := range runnerClosures(pkg.Info, x) {
				what := "worker closure"
				if rc.worker == nil {
					what = "fold closure"
				}
				checkMachineCapture(pass, pkg.Info, rc.lit, capturedVars(pkg, rc.lit), rc.worker, what)
			}
		}
		return true
	})
}

// capturedVars returns the local variables the literal closes over:
// objects used inside the literal but declared outside it (and not at
// package scope — globals have their own rule).
func capturedVars(pkg *analysis.Package, lit *ast.FuncLit) map[types.Object][]*ast.Ident {
	out := map[types.Object][]*ast.Ident{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Parent() == pkg.Types.Scope() {
			return true // package-level: rule 3's domain
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // the literal's own params and locals
		}
		out[obj] = append(out[obj], id)
		return true
	})
	return out
}

// checkPostSpawnWrites flags writes to captured variables that can
// execute while the goroutine is live: writes positioned after the go
// statement, and — for variables declared before an enclosing loop —
// writes anywhere in that loop's body, because the next iteration's
// write races with the previous iteration's goroutine. Variables
// declared inside the loop are fresh per iteration (Go ≥1.22 loop
// scoping), so only their genuinely post-spawn writes count.
func checkPostSpawnWrites(pass *analysis.Pass, info *types.Info, fd *ast.FuncDecl, spawn *ast.GoStmt,
	lit *ast.FuncLit, captured map[types.Object][]*ast.Ident, stack []ast.Node) {

	if len(captured) == 0 {
		return
	}
	loopStart := token.NoPos // outermost loop enclosing the spawn
	for _, anc := range stack {
		switch anc.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if !loopStart.IsValid() {
				loopStart = anc.Pos()
			}
		}
	}
	report := func(target ast.Expr, pos token.Pos) {
		root := analysis.RootIdent(target)
		if root == nil {
			return
		}
		obj := analysis.ObjectOf(info, root)
		if obj == nil {
			return
		}
		if _, ok := captured[obj]; !ok {
			return
		}
		hazard := pos >= spawn.End() ||
			(loopStart.IsValid() && pos >= loopStart && obj.Pos() < loopStart)
		if !hazard {
			return // happens-before the spawn: initialization, not sharing
		}
		pass.Reportf(pos,
			"%s is captured by the goroutine spawned at line %d and written while it may be running: pass it as an argument or prove the ordering and annotate",
			root.Name, pass.Fset().Position(spawn.Pos()).Line)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		// Writes inside the spawned literal are the goroutine's own.
		if n.Pos() >= lit.Pos() && n.Pos() < lit.End() {
			return false
		}
		switch w := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range w.Lhs {
				report(lhs, w.Pos())
			}
		case *ast.IncDecStmt:
			report(w.X, w.Pos())
		}
		return true
	})
}

// runnerClosure is a func literal passed to a parallel-runner entry
// point, with its worker parameter object, or nil when the runner passes
// it none.
type runnerClosure struct {
	lit    *ast.FuncLit
	worker types.Object
}

// runnerClosures returns every func literal passed to one of the
// parallel-runner entry points: all of them run on worker goroutines. A
// literal in a parameter of the runner's func(worker, index int) shape
// gets its first parameter as worker; any other (ReduceContext's fold,
// which runs on whichever worker unblocks it) gets none. The shape is
// read from the runner's declared signature, so a fold over int results
// is not mistaken for a worker closure.
func runnerClosures(info *types.Info, call *ast.CallExpr) []runnerClosure {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !workerFuncs[fn.Name()] {
		return nil
	}
	path := fn.Pkg().Path()
	if path != "internal/parallel" && !strings.HasSuffix(path, "/internal/parallel") {
		return nil
	}
	params := fn.Origin().Type().(*types.Signature).Params()
	var out []runnerClosure
	for i, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		rc := runnerClosure{lit: lit}
		if i < params.Len() && isWorkerFunc(params.At(i).Type()) &&
			len(lit.Type.Params.List) > 0 && len(lit.Type.Params.List[0].Names) > 0 {
			rc.worker = info.Defs[lit.Type.Params.List[0].Names[0]]
		}
		out = append(out, rc)
	}
	return out
}

// isWorkerFunc reports whether t is a function whose first two
// parameters are ints: the (worker, index) shape of a worker closure.
func isWorkerFunc(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() < 2 {
		return false
	}
	return isInt(sig.Params().At(0).Type()) && isInt(sig.Params().At(1).Type())
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

// checkMachineCapture enforces rule 2 on one closure: no captured
// machine values, and machine-slice indexing only by the worker param.
func checkMachineCapture(pass *analysis.Pass, info *types.Info, lit *ast.FuncLit,
	captured map[types.Object][]*ast.Ident, worker types.Object, what string) {

	for obj, uses := range captured {
		if isMachinePtr(obj.Type()) {
			pass.Reportf(firstUse(uses),
				"*core.Machine %s captured by %s: machines are single-owner; derive them from the worker index or pass them explicitly",
				obj.Name(), what)
			continue
		}
		if !isMachineSlice(obj.Type()) {
			continue
		}
		// A captured machine slice is the sanctioned per-worker-slot
		// pattern ONLY when every index is the worker parameter.
		for _, use := range uses {
			idx := indexOf(lit, use)
			if idx == nil {
				continue
			}
			root := analysis.RootIdent(idx)
			if worker != nil && root != nil && analysis.ObjectOf(info, root) == worker {
				continue
			}
			pass.Reportf(use.Pos(),
				"machine slice %s indexed by something other than the closure's worker parameter inside a %s: workers must never share a machine",
				obj.Name(), what)
		}
	}
}

// firstUse returns the earliest use position for deterministic reports.
func firstUse(uses []*ast.Ident) token.Pos {
	pos := uses[0].Pos()
	for _, u := range uses[1:] {
		if u.Pos() < pos {
			pos = u.Pos()
		}
	}
	return pos
}

// indexOf finds the index expression applied to a use of a slice ident
// inside the literal (machines[i] -> i), or nil when the use is not
// indexed.
func indexOf(lit *ast.FuncLit, use *ast.Ident) ast.Expr {
	var out ast.Expr
	analysis.WithParents(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		if n != use || len(stack) == 0 {
			return true
		}
		if idx, ok := stack[len(stack)-1].(*ast.IndexExpr); ok && idx.X == use {
			out = idx.Index
		}
		return true
	})
	return out
}

// isMachinePtr matches *core.Machine.
func isMachinePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isMachineNamed(p.Elem())
}

// isMachineSlice matches []*core.Machine.
func isMachineSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isMachinePtr(s.Elem())
}

// isMachineNamed matches the core.Machine named type (module or fixture
// layout).
func isMachineNamed(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != "Machine" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "internal/core" || strings.HasSuffix(path, "/internal/core")
}

// containsMachine walks a type for any reachable *core.Machine.
func containsMachine(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if isMachinePtr(t) || isMachineNamed(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return containsMachine(u.Elem(), seen)
	case *types.Slice:
		return containsMachine(u.Elem(), seen)
	case *types.Array:
		return containsMachine(u.Elem(), seen)
	case *types.Map:
		return containsMachine(u.Key(), seen) || containsMachine(u.Elem(), seen)
	case *types.Chan:
		return containsMachine(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsMachine(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
