package analysis

import (
	"go/ast"
	"go/types"
)

// ObjectOf resolves an identifier through either the Uses or Defs map.
func ObjectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// RootIdent walks to the identifier at the base of a selector / index /
// slice / dereference / paren / type-assert chain: the `s` in
// `s.queues[vc].buf[:0]`. It returns nil when the chain bottoms out in
// anything else (a call result, a literal, ...).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// WithParents runs fn over every node of root in source order, passing
// the stack of enclosing nodes (outermost first, not including n
// itself). Returning false skips n's children.
func WithParents(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if !descend {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
