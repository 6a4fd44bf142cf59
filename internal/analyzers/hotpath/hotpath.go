// Package hotpath implements the simlint hot-path allocation analyzer.
//
// The steady-state packet path is pinned at zero allocations per event,
// per hop, and per routing decision by AllocsPerRun gates — but those
// tests only catch a regression after it lands, and only through the
// specific traffic they drive. Functions annotated
//
//	//simlint:hotpath
//
// (a standalone line in the function's doc comment) are additionally
// held to a mechanical discipline that keeps the allocator out
// structurally, in their own bodies and in every unannotated function
// they statically call.
//
// One local classifier marks a function body's hazards:
//
//   - allocates: make/new, append onto storage that is not parameter-
//     or receiver-rooted (arenas, slabs, and caller-provided buffers
//     are), &composite / slice / map literals, string concatenation,
//     string<->[]byte/[]rune conversions, go statements, and escaping
//     closures (a func literal is clean only when called immediately,
//     or bound to a local variable that is only ever called — the
//     non-escaping pattern the compiler stack-allocates);
//   - boxes: a concrete value converted into an interface type in a
//     call argument, conversion, assignment, var declaration, or return;
//   - formats: any call into fmt, log, log/slog, or errors.
//
// Every function in the module folds its marks into a summary held in
// one module-wide map. Packages are filled in dependency order, each
// propagating its summaries over the static call graph to a fixed
// point, so a callee in an imported package is final before any caller
// folds it. A //simlint:hotpath function reports its own marks where
// they occur, and every static call site whose callee's summary is
// dirty, with the why-chain.
//
// Two annotations cut propagation:
//
//	//simlint:hotpath — the callee is policed at its own annotation, so
//	  edges into it are trusted rather than re-flagged at every caller;
//	//simlint:cold <reason> — the callee is deliberately off the
//	  steady-state path (panic formatting, one-time setup). The reason
//	  is mandatory: a bare //simlint:cold does not cut, and is itself
//	  flagged.
//
// Findings are suppressed line by line with //simlint:allow hotpath
// <reason> when a construct is deliberate and proven cold.
//
// Soundness caveats (documented in DESIGN.md): dynamic call sites —
// interface method dispatch and calls through func values — contribute
// no edges, and standard-library callees outside the formatting
// packages are assumed allocation-free (their bodies are not loaded).
// The compiler-truth escape inventory (scripts/escapes.sh) backstops
// both gaps.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyzers/analysis"
)

// Analyzer is the hotpath pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "functions annotated //simlint:hotpath must not allocate, box into interfaces, or format — " +
		"in their own bodies or in callees not annotated //simlint:cold with a reason",
	Run: run,
}

// summary is one function's allocation summary. Why names the first
// root cause for diagnostics.
type summary struct {
	Allocates bool
	Boxes     bool
	CallsFmt  bool
	Why       string
}

func (s *summary) dirty() bool { return s.Allocates || s.Boxes || s.CallsFmt }

// merge folds o into s, keeping s's first cause, and reports whether s
// gained a hazard.
func (s *summary) merge(o *summary, why string) bool {
	grew := (o.Allocates && !s.Allocates) || (o.Boxes && !s.Boxes) || (o.CallsFmt && !s.CallsFmt)
	s.Allocates = s.Allocates || o.Allocates
	s.Boxes = s.Boxes || o.Boxes
	s.CallsFmt = s.CallsFmt || o.CallsFmt
	if s.Why == "" {
		s.Why = why
	}
	return grew
}

// describe renders the summary's dominant hazard for a diagnostic.
func (s *summary) describe() string {
	switch {
	case s.CallsFmt:
		return "formats: " + s.Why
	case s.Allocates:
		return "may allocate: " + s.Why
	}
	return "boxes into an interface: " + s.Why
}

// fmtPackages is the stdlib denylist: calls into these packages mark
// the caller as formatting (and therefore allocating).
var fmtPackages = map[string]bool{
	"fmt":      true,
	"log":      true,
	"log/slog": true,
	"errors":   true,
}

// mark is one hazard the local classifier found: its position, its
// summary contribution, and the diagnostic text.
type mark struct {
	pos  token.Pos
	kind summary
	what string
}

var (
	allocates = summary{Allocates: true}
	boxes     = summary{Boxes: true}
	formats   = summary{Allocates: true, CallsFmt: true}
)

func run(pass *analysis.Pass) error {
	graph := pass.Module.Graph

	// cut reports whether propagation stops at fn: hot functions are
	// policed at their own annotation, cold-with-reason ones are exempt.
	cut := func(fn *types.Func) bool {
		fd := graph.Decls[fn]
		if fd == nil {
			return false
		}
		reason, _ := analysis.DirectiveReason([]*ast.CommentGroup{fd.Doc}, "cold")
		return reason != "" || analysis.HasDirective(fd.Doc, "hotpath")
	}
	// Stdlib and unresolved callees have no summary and are assumed
	// clean (see caveats).
	summaries := map[*types.Func]*summary{}
	var hotFns []*types.Func
	dirtyEdges := func(fn *types.Func, visit func(analysis.CallSite, *summary)) {
		for _, site := range graph.Sites[fn] {
			if site.Callee == nil || site.Dynamic || cut(site.Callee) {
				continue
			}
			if cs := summaries[site.Callee]; cs != nil && cs.dirty() {
				visit(site, cs)
			}
		}
	}

	for _, pkg := range pass.Module.Pkgs {
		// Local summaries in source order; hot functions report their
		// own marks, and a bare //simlint:cold is flagged.
		var fns []*types.Func
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				if reason, ok := analysis.DirectiveReason([]*ast.CommentGroup{fd.Doc}, "cold"); ok && reason == "" {
					pass.Reportf(fd.Pos(), "//simlint:cold needs a reason; a bare annotation does not exempt %s", fn.Name())
				}
				hot := analysis.HasDirective(fd.Doc, "hotpath")
				if hot {
					hotFns = append(hotFns, fn)
				}
				s := &summary{}
				for _, m := range classify(pkg.Info, fd) {
					s.merge(&m.kind, fmt.Sprintf("%s at line %d", m.what, pass.Fset().Position(m.pos).Line))
					if hot {
						pass.Reportf(m.pos, "%s", m.what)
					}
				}
				fns = append(fns, fn)
				summaries[fn] = s
			}
		}

		// Fixed point over the package's edges; callees in imported
		// packages are already final.
		for changed := true; changed; {
			changed = false
			for _, fn := range fns {
				dirtyEdges(fn, func(site analysis.CallSite, cs *summary) {
					if summaries[fn].merge(cs, "via "+site.Callee.Name()+": "+cs.Why) {
						changed = true
					}
				})
			}
		}
	}

	// Every static edge out of a hot function into a dirty, un-cut
	// callee.
	for _, fn := range hotFns {
		dirtyEdges(fn, func(site analysis.CallSite, cs *summary) {
			pass.Reportf(site.Pos,
				"hot path calls %s, which %s; annotate the callee //simlint:cold <reason> or make it allocation-free",
				site.Callee.Name(), cs.describe())
		})
	}
	return nil
}

// classify is the local rule set: every allocation, boxing, and
// formatting hazard in fd's own body, in source order.
func classify(info *types.Info, fd *ast.FuncDecl) []mark {
	if fd.Body == nil {
		return nil
	}
	var marks []mark
	add := func(pos token.Pos, kind summary, format string, args ...any) {
		marks = append(marks, mark{pos, kind, fmt.Sprintf(format, args...)})
	}
	boxed := func(target types.Type, e ast.Expr) bool {
		return target != nil && types.IsInterface(target) && isConcrete(info, e)
	}
	rooted := paramRooted(info, fd)
	callOnly := localCallOnlyClosures(info, fd.Body)
	fnSig, _ := info.Defs[fd.Name].Type().(*types.Signature)

	analysis.WithParents(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			add(x.Pos(), allocates, "go statement allocates a goroutine")
		case *ast.FuncLit:
			if !closureAllowed(x, stack, callOnly) {
				add(x.Pos(), allocates,
					"closure may escape (allocates its context); hot paths use typed events or local call-only literals")
			}
		case *ast.UnaryExpr:
			if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok && x.Op == token.AND {
				add(x.Pos(), allocates, "&composite literal allocates")
			}
		case *ast.CompositeLit:
			if len(stack) > 0 {
				if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
					return true // already marked as &composite
				}
			}
			if t := info.Types[x].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					add(x.Pos(), allocates, "slice/map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if tv := info.Types[x]; x.Op == token.ADD && tv.Value == nil && tv.Type != nil && isString(tv.Type) {
				add(x.Pos(), allocates, "string concatenation allocates")
			}
		case *ast.CallExpr:
			classifyCall(info, x, rooted, add)
		case *ast.AssignStmt:
			if x.Tok != token.ASSIGN || len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				if lt := info.Types[lhs].Type; boxed(lt, x.Rhs[i]) {
					add(x.Rhs[i].Pos(), boxes, "concrete value boxed into interface %s on assignment", lt)
				}
			}
		case *ast.ValueSpec:
			if x.Type == nil {
				return true
			}
			t := info.Types[x.Type].Type
			for _, v := range x.Values {
				if boxed(t, v) {
					add(v.Pos(), boxes, "concrete value boxed into interface %s in declaration", t)
				}
			}
		case *ast.ReturnStmt:
			// A return belongs to its nearest enclosing function: inside
			// a nested literal it is checked against the literal's own
			// results.
			sig := fnSig
			for i := len(stack) - 1; i >= 0; i-- {
				if lit, ok := stack[i].(*ast.FuncLit); ok {
					sig, _ = info.Types[lit].Type.(*types.Signature)
					break
				}
			}
			if sig == nil || sig.Results().Len() != len(x.Results) {
				return true // bare return, or one call expanding to several results
			}
			for i, r := range x.Results {
				if t := sig.Results().At(i).Type(); boxed(t, r) {
					add(r.Pos(), boxes, "concrete value boxed into interface return %s", t)
				}
			}
		}
		return true
	})
	return marks
}

// classifyCall marks one call expression: allocating builtins,
// allocating and boxing conversions, formatting calls, and concrete
// arguments landing in interface parameters.
func classifyCall(info *types.Info, call *ast.CallExpr, rooted map[types.Object]bool,
	add func(token.Pos, summary, string, ...any)) {

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := analysis.ObjectOf(info, id).(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				add(call.Pos(), allocates, "%s allocates", b.Name())
			case "append":
				if len(call.Args) == 0 {
					break
				}
				if root := analysis.RootIdent(call.Args[0]); root == nil {
					add(call.Pos(), allocates,
						"append onto a non-parameter slice; hot-path appends must target preallocated parameter- or receiver-rooted storage")
				} else if !rooted[analysis.ObjectOf(info, root)] {
					add(call.Pos(), allocates,
						"append onto %s, which is not parameter- or receiver-rooted; hot-path appends must target preallocated storage", root.Name)
				}
			}
			return
		}
	}

	// Conversions: interface boxing and string<->slice copies.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		target, at := tv.Type, info.Types[call.Args[0]].Type
		if types.IsInterface(target) && isConcrete(info, call.Args[0]) {
			add(call.Pos(), boxes, "conversion boxes concrete value into interface %s", target)
			return
		}
		if at == nil {
			return
		}
		_, targetSlice := target.Underlying().(*types.Slice)
		_, argSlice := at.Underlying().(*types.Slice)
		if (targetSlice && isString(at)) || (isString(target) && argSlice) {
			add(call.Pos(), allocates, "string conversion copies its bytes (allocates)")
		}
		return
	}

	// Formatting calls, by static callee.
	if callee, dynamic, _ := analysis.StaticCallee(info, call); callee != nil && !dynamic &&
		callee.Pkg() != nil && fmtPackages[callee.Pkg().Path()] {
		add(call.Pos(), formats, "%s.%s call formats (allocates)", callee.Pkg().Name(), callee.Name())
		return
	}

	// Ordinary calls: concrete arguments landing in interface parameters.
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis == token.NoPos {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			} else if i == params.Len()-1 {
				pt = params.At(params.Len() - 1).Type()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && types.IsInterface(pt) && isConcrete(info, arg) {
			add(arg.Pos(), boxes, "concrete value boxed into interface parameter %s", pt)
		}
	}
}

// ParamRooted computes the set of objects rooted in the function's
// receiver or parameters, propagated through local aliases in source
// order (pool := &f.pool keeps pool parameter-rooted). A local bound to
// the result of an append-style call — one whose FIRST argument is a
// rooted slice, like buf := e.intraGroup(e.nonBufs[cur][:0], a, b) —
// inherits rootedness too: by that calling convention the result
// aliases the caller-provided buffer's storage.
func paramRooted(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	rooted := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					rooted[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	if fd.Body == nil {
		return rooted
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			rhs := assign.Rhs[i]
			if call, ok := rhs.(*ast.CallExpr); ok && len(call.Args) > 0 {
				// Append-style: f(buf, ...) returns storage rooted where
				// buf is.
				rhs = call.Args[0]
			}
			root := analysis.RootIdent(rhs)
			if root == nil {
				continue
			}
			robj := analysis.ObjectOf(info, root)
			if robj == nil || !rooted[robj] {
				continue
			}
			if obj := analysis.ObjectOf(info, id); obj != nil {
				rooted[obj] = true
			}
		}
		return true
	})
	return rooted
}

// localCallOnlyClosures finds func literals bound to a local variable
// whose every other use is a direct call — the pattern the compiler
// keeps off the heap.
func localCallOnlyClosures(info *types.Info, body *ast.BlockStmt) map[*ast.FuncLit]bool {
	bound := map[types.Object]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if lit, ok := assign.Rhs[i].(*ast.FuncLit); ok {
				if obj := analysis.ObjectOf(info, id); obj != nil {
					bound[obj] = lit
				}
			}
		}
		return true
	})
	if len(bound) == 0 {
		return nil
	}
	escaped := map[types.Object]bool{}
	analysis.WithParents(body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if _, isBound := bound[obj]; obj == nil || !isBound {
			return true
		}
		// A use is safe only as the Fun of a call.
		if len(stack) > 0 {
			if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok && call.Fun == id {
				return true
			}
		}
		escaped[obj] = true
		return true
	})
	ok := map[*ast.FuncLit]bool{}
	for obj, lit := range bound {
		if !escaped[obj] {
			ok[lit] = true
		}
	}
	return ok
}

// closureAllowed reports whether a func literal is in one of the two
// non-escaping positions.
func closureAllowed(lit *ast.FuncLit, stack []ast.Node, callOnly map[*ast.FuncLit]bool) bool {
	if callOnly[lit] {
		return true
	}
	if len(stack) == 0 {
		return false
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.CallExpr:
		return p.Fun == lit // immediately invoked
	case *ast.ParenExpr:
		if len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok {
				return call.Fun == p
			}
		}
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConcrete reports whether expr has a concrete (non-interface,
// non-nil) type.
func isConcrete(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if basic, ok := tv.Type.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return false
	}
	return !types.IsInterface(tv.Type)
}
