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
// by hotpath's cold grammar: a bare directive is present with an empty
// reason (which hotpath rejects), and the reason is everything after the
// directive word.
func TestDirectiveReason(t *testing.T) {
	const src = `package p

// helper does things.
//
//simlint:cold panic path; never returns
func a() {}

//simlint:cold
func b() {}

func c() {}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "dir.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	reasons := map[string]struct {
		reason  string
		present bool
	}{}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		r, present := DirectiveReason([]*ast.CommentGroup{fd.Doc}, "cold")
		reasons[fd.Name.Name] = struct {
			reason  string
			present bool
		}{r, present}
	}
	if got := reasons["a"]; !got.present || got.reason != "panic path; never returns" {
		t.Errorf("a: got (%q, %v), want full reason and present", got.reason, got.present)
	}
	if got := reasons["b"]; !got.present || got.reason != "" {
		t.Errorf("b: got (%q, %v), want bare directive present with empty reason", got.reason, got.present)
	}
	if got := reasons["c"]; got.present {
		t.Errorf("c: directive reported present on an unannotated function")
	}
}
