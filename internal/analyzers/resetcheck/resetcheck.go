// Package resetcheck implements the simlint reset-coverage analyzer.
//
// Warm machine reuse (core.Machine) rewinds a kernel/fabric pair in
// place between runs, and its correctness rests on every piece of
// mutable run state being rewound: a struct field added without a
// matching line in Reset silently leaks one run's state into the next —
// the classic warm-reuse heisenbug, visible only as a determinism
// mismatch several layers up.
//
// For every struct type with a Reset (or unexported reset) method, the
// analyzer requires each field to be either
//
//   - assigned in Reset — directly, through a local alias, via a method
//     call on the field (f.counters.Reset()), by being ranged over and
//     rewound element-wise, by having its address taken, or inside any
//     same-receiver helper method Reset calls — or
//   - annotated with //simlint:resetsafe <reason> on the field's line
//     (or its doc comment), declaring it deliberately reset-exempt:
//     immutable wiring, identity, or configuration that must survive.
//
// The coverage rules are deliberately syntactic over-approximations: a
// mention in a resetting position counts. What the analyzer guarantees
// is the converse — a field with no resetting mention and no
// annotation cannot build — which is exactly the regression that
// matters when a struct grows a new field.
package resetcheck

import (
	"go/ast"
	"go/types"

	"repro/internal/analyzers/analysis"
)

// Analyzer is the resetcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "resetcheck",
	Doc: "every field of a struct with a Reset method must be assigned in " +
		"Reset (directly or via a callee) or carry //simlint:resetsafe <reason>",
	Run: run,
}

// methodIndex maps receiver base-type name -> method name -> decl.
type methodIndex map[string]map[string]*ast.FuncDecl

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Module.Pkgs {
		checkPackage(pass, pkg)
	}
	return nil
}

// checkPackage checks every (struct, Reset) pair declared in pkg.
func checkPackage(pass *analysis.Pass, pkg *analysis.Package) {
	methods := methodIndex{}
	specs := map[string]*ast.TypeSpec{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || len(d.Recv.List) == 0 {
					continue
				}
				name := recvTypeName(d.Recv.List[0].Type)
				if name == "" {
					continue
				}
				if methods[name] == nil {
					methods[name] = map[string]*ast.FuncDecl{}
				}
				methods[name][d.Name.Name] = d
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						specs[ts.Name.Name] = ts
					}
				}
			}
		}
	}

	for typeName, byName := range methods {
		reset := byName["Reset"]
		if reset == nil {
			reset = byName["reset"]
		}
		if reset == nil {
			continue
		}
		ts := specs[typeName]
		if ts == nil {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		checkReset(pass, pkg.Info, typeName, st, reset, byName)
	}
}

// recvTypeName unwraps a receiver type expression to its base type name.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr: // generic receiver
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// fieldNames lists a struct's field names (embedded fields by their type
// name) with any resetsafe annotation.
func structFields(st *ast.StructType) (names []string, exempt map[string]bool, fieldPos map[string]ast.Node) {
	exempt = map[string]bool{}
	fieldPos = map[string]ast.Node{}
	for _, f := range st.Fields.List {
		_, safe := analysis.DirectiveReason([]*ast.CommentGroup{f.Doc, f.Comment}, "resetsafe")
		var fnames []string
		if len(f.Names) == 0 {
			if n := recvTypeName(f.Type); n != "" { // embedded
				fnames = []string{n}
			}
		} else {
			for _, id := range f.Names {
				fnames = append(fnames, id.Name)
			}
		}
		for _, n := range fnames {
			if n == "_" {
				continue
			}
			names = append(names, n)
			fieldPos[n] = f
			if safe {
				exempt[n] = true
			}
		}
	}
	return names, exempt, fieldPos
}

// checkReset verifies field coverage for one (struct, Reset) pair.
func checkReset(pass *analysis.Pass, info *types.Info, typeName string, st *ast.StructType, reset *ast.FuncDecl, byName map[string]*ast.FuncDecl) {
	names, exempt, _ := structFields(st)
	isField := map[string]bool{}
	for _, n := range names {
		isField[n] = true
	}

	cov := &coverage{
		info:    info,
		isField: isField,
		covered: map[string]bool{},
		byName:  byName,
		visited: map[*ast.FuncDecl]bool{},
	}
	cov.method(reset)

	for _, n := range names {
		if exempt[n] || cov.covered[n] || cov.all {
			continue
		}
		pass.Reportf(reset.Pos(),
			"%s.%s is not reset by %s: assign it or annotate the field //simlint:resetsafe <reason> (warm reuse would leak it across runs)",
			typeName, n, reset.Name.Name)
	}
}

// coverage walks Reset (and same-receiver callees) accumulating the set
// of fields touched in a resetting position.
type coverage struct {
	info    *types.Info
	isField map[string]bool
	covered map[string]bool
	all     bool // *recv = T{} style wholesale reset seen
	byName  map[string]*ast.FuncDecl
	visited map[*ast.FuncDecl]bool
}

// method processes one method body. Local variables aliasing the
// receiver (or one of its fields) propagate coverage: fl := c.Flits[r]
// followed by fl[t] = 0 covers Flits.
func (c *coverage) method(fd *ast.FuncDecl) {
	if fd == nil || fd.Body == nil || c.visited[fd] {
		return
	}
	c.visited[fd] = true

	recvObj := c.receiverObject(fd)
	if recvObj == nil {
		return
	}
	// alias maps a local object to the receiver field it is rooted at;
	// the empty string aliases the whole receiver.
	alias := map[types.Object]string{recvObj: ""}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				c.mark(alias, lhs)
			}
			// Record fresh aliases: lhs idents bound to receiver-rooted
			// rhs expressions.
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if field, rooted := c.root(alias, x.Rhs[i]); rooted {
						if obj := c.objectOf(id); obj != nil {
							alias[obj] = field
						}
					}
				}
			}
		case *ast.IncDecStmt:
			c.mark(alias, x.X)
		case *ast.UnaryExpr:
			// Taking a field's address hands it to someone who can
			// mutate it.
			if x.Op.String() == "&" {
				if field, rooted := c.root(alias, x.X); rooted && field != "" {
					c.covered[field] = true
				}
			}
		case *ast.RangeStmt:
			c.rangeStmt(alias, x)
		case *ast.CallExpr:
			c.call(alias, x)
		}
		return true
	})
}

// mark records an assignment through expr.
func (c *coverage) mark(alias map[types.Object]string, expr ast.Expr) {
	if star, ok := expr.(*ast.StarExpr); ok {
		if field, rooted := c.root(alias, star.X); rooted && field == "" {
			c.all = true // *recv = ... rewrites everything
			return
		}
	}
	if field, rooted := c.root(alias, expr); rooted && field != "" {
		c.covered[field] = true
	}
}

// rangeStmt covers fields that are ranged over and rewound in the loop
// body (the `for _, s := range f.servers { s.reset() }` idiom), and
// binds the loop variables as aliases of the ranged field.
func (c *coverage) rangeStmt(alias map[types.Object]string, r *ast.RangeStmt) {
	field, rooted := c.root(alias, r.X)
	if !rooted || field == "" {
		return
	}
	if r.Body != nil && len(r.Body.List) > 0 {
		c.covered[field] = true
	}
	for _, v := range []ast.Expr{r.Key, r.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := c.objectOf(id); obj != nil {
				alias[obj] = field
			}
		}
	}
}

// call covers fields passed to callees or receiving method calls, and
// recurses into same-receiver helper methods.
func (c *coverage) call(alias map[types.Object]string, call *ast.CallExpr) {
	// Arguments: clear(recv.f), copy(recv.f, ...), helper(&recv.f)...
	for _, arg := range call.Args {
		if field, rooted := c.root(alias, arg); rooted && field != "" {
			c.covered[field] = true
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	field, rooted := c.root(alias, sel.X)
	if !rooted {
		return
	}
	if field != "" {
		// Method call on a field: recv.events.reset(), recv.rng.Seed(...).
		c.covered[field] = true
		return
	}
	// Same-receiver helper: recv.m() — union its coverage.
	c.method(c.byName[sel.Sel.Name])
}

// root resolves expr to (field, true) when it is a chain rooted at the
// receiver or one of its aliases; field is "" for the receiver itself.
func (c *coverage) root(alias map[types.Object]string, expr ast.Expr) (string, bool) {
	// Unwrap to find the first selector directly on an aliased object.
	switch x := expr.(type) {
	case *ast.Ident:
		if obj := c.objectOf(x); obj != nil {
			if field, ok := alias[obj]; ok {
				return field, true
			}
		}
		return "", false
	case *ast.SelectorExpr:
		field, rooted := c.root(alias, x.X)
		if !rooted {
			return "", false
		}
		if field != "" {
			return field, true // deeper selection stays within the field
		}
		if c.isField[x.Sel.Name] {
			return x.Sel.Name, true
		}
		return "", false // method value or promoted name we don't track
	case *ast.IndexExpr:
		return c.root(alias, x.X)
	case *ast.SliceExpr:
		return c.root(alias, x.X)
	case *ast.StarExpr:
		return c.root(alias, x.X)
	case *ast.ParenExpr:
		return c.root(alias, x.X)
	case *ast.UnaryExpr:
		return c.root(alias, x.X)
	}
	return "", false
}

func (c *coverage) objectOf(id *ast.Ident) types.Object {
	if obj := c.info.Defs[id]; obj != nil {
		return obj
	}
	return c.info.Uses[id]
}

// receiverObject returns the types.Object of fd's receiver variable.
func (c *coverage) receiverObject(fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return c.info.Defs[fd.Recv.List[0].Names[0]]
}
