// Package analysis is the stdlib-only framework the simlint analyzers
// run on. The build environment for this repository is hermetic (no
// module downloads), so golang.org/x/tools/go/analysis is not
// available; this package keeps only what the suite uses. An Analyzer
// runs once per driver run over the whole loaded Module — every
// package in dependency order plus the static call graph across them —
// and reports through Pass.Reportf.
//
// The package also implements the simlint suppression grammar shared
// by every analyzer:
//
//	//simlint:allow <analyzer> <reason>
//
// placed on the flagged line (trailing) or on the line directly above
// silences that analyzer for that line. The reason is mandatory: an
// allow comment without one does not suppress anything.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //simlint:allow comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Directives lists the //simlint:<verb> annotations the analyzer
	// reads besides the shared allow; any other verb is reported as
	// inert (Module.UnknownDirectives).
	Directives []string
	// Run applies the analyzer to the whole module, once per driver
	// run, reporting findings through pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's run over the loaded module.
type Pass struct {
	Analyzer *Analyzer
	// Module holds every loaded package in dependency order and the
	// call graph across them.
	Module *Module

	diags *[]Diagnostic
}

// Fset returns the module's shared file set.
func (p *Pass) Fset() *token.FileSet { return p.Module.Loader.Fset }

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding unless a //simlint:allow comment covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset().Position(pos)
	if p.Module.sup.allows(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressions maps file -> line -> analyzer names allowed there.
type suppressions map[string]map[int][]string

var (
	directiveRE = regexp.MustCompile(`^//simlint:([A-Za-z0-9_-]+)`)
	allowRE     = regexp.MustCompile(`^//simlint:allow\s+([A-Za-z0-9_-]+)\s+\S`)
)

// forEachDirective calls fn for every //simlint:<verb> comment in
// files, with its position, its verb and, for an allow with a reason,
// the analyzer it names ("" for any other directive).
func forEachDirective(fset *token.FileSet, files []*ast.File, fn func(pos token.Position, verb, allowed string)) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				allowed := ""
				if a := allowRE.FindStringSubmatch(c.Text); a != nil {
					allowed = a[1]
				}
				fn(fset.Position(c.Pos()), m[1], allowed)
			}
		}
	}
}

// collectSuppressions scans every comment of the package for
// //simlint:allow directives. A directive on line L covers findings on L
// (trailing style) and on L+1 (comment-above style).
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	s := suppressions{}
	forEachDirective(fset, files, func(pos token.Position, _, name string) {
		if name == "" {
			return
		}
		byLine := s[pos.Filename]
		if byLine == nil {
			byLine = map[int][]string{}
			s[pos.Filename] = byLine
		}
		byLine[pos.Line] = append(byLine[pos.Line], name)
		byLine[pos.Line+1] = append(byLine[pos.Line+1], name)
	})
	return s
}

func (s suppressions) allows(analyzer string, pos token.Position) bool {
	for _, name := range s[pos.Filename][pos.Line] {
		if name == analyzer {
			return true
		}
	}
	return false
}

// sortDiagnostics orders findings by position then message, the
// driver's stable reporting order.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// DirectiveReason returns the free-text reason following a
// //simlint:<name> directive in doc or trailing comment groups, or ""
// when the directive is absent or bare: a directive without a reason
// exempts nothing.
func DirectiveReason(groups []*ast.CommentGroup, name string) string {
	prefix := "//simlint:" + name + " "
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if rest, ok := strings.CutPrefix(c.Text, prefix); ok && strings.TrimSpace(rest) != "" {
				return strings.TrimSpace(rest)
			}
		}
	}
	return ""
}
