// Package analysis is a self-contained miniature of
// golang.org/x/tools/go/analysis: just enough framework to write typed
// AST analyzers against the standard library alone. The build
// environment for this repository is hermetic (no module downloads), so
// vendoring x/tools is not an option; instead the package mirrors the
// x/tools API shape — Analyzer, Pass, Diagnostic — closely enough that
// migrating the simlint suite onto the real framework later is a
// mechanical import swap.
//
// Beyond the x/tools core, the package implements the simlint
// suppression grammar shared by every analyzer:
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
	"go/types"
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
	// Run applies the analyzer to one package, reporting findings
	// through pass.Reportf. Under the module driver, packages are
	// visited in dependency order, so facts exported on an imported
	// package's objects are visible here.
	Run func(*Pass) error
	// RunModule, if set, runs once after every package pass with the
	// whole module — full package list, call graph, fact store — for
	// analyses whose scope cannot be expressed package-by-package
	// (reverse reachability from sinks, cross-package sharing).
	RunModule func(*ModulePass) error
	// FactTypes declares every Fact type the analyzer exports or
	// imports, mirroring x/tools; using an undeclared type panics.
	FactTypes []Fact
}

// Pass carries one (analyzer, package) unit of work, mirroring
// x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is the driver run this pass belongs to (call graph,
	// sibling packages). Nil when the pass runs outside a module
	// driver.
	Module *Module

	diags    *[]Diagnostic
	suppress suppressions
}

// ExportObjectFact attaches fact to obj for importing packages'
// passes (and module passes) to consume.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.Module.facts.exportObject(p.Analyzer, obj, fact)
}

// ImportObjectFact copies the fact of ptr's concrete type previously
// exported on obj into *ptr, reporting whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	return p.Module.facts.importObject(p.Analyzer, obj, ptr)
}

// ImportObjectFact is available on module passes too.
func (p *ModulePass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	return p.Module.facts.importObject(p.Analyzer, obj, ptr)
}

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
	position := p.Fset.Position(pos)
	if p.suppress.allows(p.Analyzer.Name, position) {
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

var allowRE = regexp.MustCompile(`^//simlint:allow\s+([A-Za-z0-9_-]+)\s+\S`)

// forEachAllow calls fn for every //simlint:allow directive (with a
// reason) in files, with its position and the analyzer it names.
func forEachAllow(fset *token.FileSet, files []*ast.File, fn func(token.Position, string)) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := allowRE.FindStringSubmatch(c.Text); m != nil {
					fn(fset.Position(c.Pos()), m[1])
				}
			}
		}
	}
}

// collectSuppressions scans every comment of the package for
// //simlint:allow directives. A directive on line L covers findings on L
// (trailing style) and on L+1 (comment-above style).
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	s := suppressions{}
	forEachAllow(fset, files, func(pos token.Position, name string) {
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

// HasDirective reports whether a comment group contains the given
// //simlint:<name> directive as a standalone comment line (the
// annotation grammar for function markers like //simlint:hotpath).
func HasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	want := "//simlint:" + name
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == want || strings.HasPrefix(text, want+" ") {
			return true
		}
	}
	return false
}

// DirectiveReason extracts the free-text reason following a
// //simlint:<name> directive in doc or trailing comment groups, and
// whether the directive is present at all.
func DirectiveReason(groups []*ast.CommentGroup, name string) (string, bool) {
	prefix := "//simlint:" + name
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimSpace(c.Text)
			if text == prefix {
				return "", true
			}
			if strings.HasPrefix(text, prefix+" ") {
				return strings.TrimSpace(strings.TrimPrefix(text, prefix)), true
			}
		}
	}
	return "", false
}
