package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestSuppressionGrammar pins the edge cases of the //simlint:allow
// grammar: the reason is mandatory, a directive covers exactly its own
// line (trailing style) and the line below (comment-above style), and
// suppression is per-analyzer — one line can carry allows for several
// analyzers by combining the two styles.
func TestSuppressionGrammar(t *testing.T) {
	const src = `package p

func f() {
	_ = 1 //simlint:allow alpha trailing reason
	_ = 2
	//simlint:allow beta preceding-line reason
	_ = 3
	_ = 4
	_ = 5 //simlint:allow gamma bare-directive-below must not suppress
	//simlint:allow delta
	_ = 6
	//simlint:allow epsilon combined with the trailing one below
	_ = 7 //simlint:allow zeta two analyzers on one line
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "edge.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := collectSuppressions(fset, []*ast.File{file})

	at := func(line int) token.Position {
		return token.Position{Filename: "edge.go", Line: line}
	}
	cases := []struct {
		line     int
		analyzer string
		want     bool
		why      string
	}{
		{4, "alpha", true, "trailing allow covers its own line"},
		{5, "alpha", true, "trailing allow also covers the next line"},
		{6, "alpha", false, "allow reaches one line down, not two"},
		{7, "beta", true, "comment-above allow covers the line below"},
		{6, "beta", true, "comment-above allow covers its own (comment) line"},
		{8, "beta", false, "comment-above allow does not reach two lines down"},
		{4, "beta", false, "suppression is per-analyzer: alpha's line does not cover beta"},
		{11, "delta", false, "allow without a reason suppresses nothing"},
		{10, "delta", false, "allow without a reason suppresses nothing on its own line either"},
		{13, "epsilon", true, "first of two analyzers allowed on one line (comment above)"},
		{13, "zeta", true, "second of two analyzers allowed on one line (trailing)"},
		{13, "alpha", false, "a doubly-allowed line still blocks unrelated analyzers"},
	}
	for _, c := range cases {
		if got := sup.allows(c.analyzer, at(c.line)); got != c.want {
			t.Errorf("line %d, analyzer %q: allows=%v, want %v (%s)",
				c.line, c.analyzer, got, c.want, c.why)
		}
	}
}

// TestDirectiveReason pins the //simlint:<name> <reason> extraction used
// by resetcheck's resetsafe grammar: the directive is found in a field's
// doc or trailing comment, the reason is everything after the directive
// word, and a bare directive reads as no reason at all, so it exempts
// nothing.
func TestDirectiveReason(t *testing.T) {
	const src = `package p

type s struct {
	// a is rebuilt by the owner.
	//
	//simlint:resetsafe immutable after construction
	a int
	b int //simlint:resetsafe  rewound by the caller
	//simlint:resetsafe
	c int
	d int // a plain comment
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "dir.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"a": "immutable after construction",
		"b": "rewound by the caller",
		"c": "",
		"d": "",
	}
	st := file.Decls[0].(*ast.GenDecl).Specs[0].(*ast.TypeSpec).Type.(*ast.StructType)
	for _, f := range st.Fields.List {
		name := f.Names[0].Name
		if got := DirectiveReason([]*ast.CommentGroup{f.Doc, f.Comment}, "resetsafe"); got != want[name] {
			t.Errorf("%s: reason %q, want %q", name, got, want[name])
		}
	}
}
