package analysis

import (
	"go/ast"
	"go/types"
)

// CallGraph is the module's conservative static-dispatch call graph.
// Nodes are declared functions and methods (*types.Func); calls made
// inside a func literal are attributed to the literal's enclosing
// declaration, which over-approximates "runs when the declaration runs"
// — the right direction for reachability questions. Calls in
// package-level variable initializers are attributed to no node (they
// run once at init, never on a rendering path).
type CallGraph struct {
	// Callees lists the statically resolved target of every call
	// expression inside each declared function, in source order. Calls
	// through interface methods, func values and func-typed fields
	// resolve to nothing and have no entry: the graph's documented
	// soundness gap.
	Callees map[*types.Func][]*types.Func
	// Decls maps a function object back to its syntax, for analyzers
	// that need the callee's body or doc comment.
	Decls map[*types.Func]*ast.FuncDecl
	// PkgOf maps a function object to the loaded package declaring it.
	PkgOf map[*types.Func]*Package
}

// NewCallGraph returns an empty graph.
func NewCallGraph() *CallGraph {
	return &CallGraph{
		Callees: map[*types.Func][]*types.Func{},
		Decls:   map[*types.Func]*ast.FuncDecl{},
		PkgOf:   map[*types.Func]*Package{},
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
			var callees []*types.Func
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := staticCallee(pkg.Info, call); callee != nil {
						callees = append(callees, callee)
					}
				}
				return true
			})
			g.Callees[fn] = callees
		}
	}
}

// staticCallee resolves the target of one call expression: a function,
// a concrete method, or a method expression. It returns nil for
// conversions and builtins (not function calls at all), for an
// immediately-invoked func literal (its body is already attributed to
// the enclosing declaration), and for every target the static graph
// cannot pin down: interface method dispatch and calls through func
// values or struct fields.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](x): resolve the underlying ident.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			fn, _ := sel.Obj().(*types.Func)
			switch {
			case sel.Kind() == types.MethodExpr:
				return fn // T.M(recv, ...) names the method directly
			case sel.Kind() == types.MethodVal && !types.IsInterface(sel.Recv()):
				return fn
			}
			return nil
		}
		// Qualified identifier pkg.Func.
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}
