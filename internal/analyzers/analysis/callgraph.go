package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CallSite is one call expression attributed to a declared function.
// Callee is the statically resolved target, nil when resolution fails
// (a call through a plain function value). Dynamic marks targets whose
// runtime implementation the static graph cannot pin down — interface
// method dispatch and func-value calls — the documented soundness gap
// of the whole graph: an analyzer that must be conservative treats a
// dynamic site as "could be anything".
type CallSite struct {
	Callee  *types.Func
	Pos     token.Pos
	Dynamic bool
}

// CallGraph is the module's conservative static-dispatch call graph.
// Nodes are declared functions and methods (*types.Func); calls made
// inside a func literal are attributed to the literal's enclosing
// declaration, which over-approximates "runs when the declaration runs"
// — the right direction for may-allocate and reachability questions.
// Calls in package-level variable initializers are attributed to no
// node (they run once at init, never on a hot or rendering path).
type CallGraph struct {
	// Sites lists every call expression inside each declared function.
	Sites map[*types.Func][]CallSite
	// Decls maps a function object back to its syntax, for analyzers
	// that need the callee's body or doc comment.
	Decls map[*types.Func]*ast.FuncDecl
	// PkgOf maps a function object to the loaded package declaring it.
	PkgOf map[*types.Func]*Package
}

// NewCallGraph returns an empty graph.
func NewCallGraph() *CallGraph {
	return &CallGraph{
		Sites: map[*types.Func][]CallSite{},
		Decls: map[*types.Func]*ast.FuncDecl{},
		PkgOf: map[*types.Func]*Package{},
	}
}

// AddPackage indexes every function declaration of pkg into the graph.
func (g *CallGraph) AddPackage(pkg *Package) {
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
			g.Decls[fn] = fd
			g.PkgOf[fn] = pkg
			if fd.Body == nil {
				continue
			}
			var sites []CallSite
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee, dynamic, isCall := StaticCallee(pkg.Info, call)
				if isCall {
					sites = append(sites, CallSite{Callee: callee, Pos: call.Pos(), Dynamic: dynamic})
				}
				return true
			})
			g.Sites[fn] = sites
		}
	}
}

// StaticCallee resolves the target of one call expression. isCall is
// false for conversions and builtins (not function calls at all);
// dynamic is true when the target cannot be pinned statically
// (interface method dispatch, calls through func values or struct
// fields). An immediately-invoked func literal resolves to (nil, false,
// true): its body is already attributed to the enclosing declaration,
// so there is no edge to add and nothing dynamic about it.
func StaticCallee(info *types.Info, call *ast.CallExpr) (callee *types.Func, dynamic, isCall bool) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](x): resolve the underlying ident.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if tv, ok := info.Types[idx.X]; ok && tv.IsType() {
			return nil, false, false // conversion to a generic type
		}
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	// Conversions are not calls.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return nil, false, false
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			return obj, false, true
		case *types.Builtin:
			return nil, false, false
		case *types.Var:
			return nil, true, true // call through a func value
		case *types.TypeName:
			return nil, false, false
		}
		return nil, true, true
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn, _ := sel.Obj().(*types.Func)
				if fn == nil {
					return nil, true, true
				}
				recv := sel.Recv()
				if sel.Kind() == types.MethodExpr {
					// T.M(recv, ...) names the method directly.
					return fn, false, true
				}
				if types.IsInterface(recv) {
					return fn, true, true
				}
				return fn, false, true
			case types.FieldVal:
				return nil, true, true // call through a func-typed field
			}
		}
		// Qualified identifier pkg.Func.
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn, false, true
		}
		if _, ok := info.Uses[f.Sel].(*types.TypeName); ok {
			return nil, false, false
		}
		return nil, true, true
	case *ast.FuncLit:
		return nil, false, true
	}
	return nil, true, true
}
