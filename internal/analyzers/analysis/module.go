package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Module is one whole-program driver run: every requested package (and
// every module-internal dependency) loaded and type-checked, ordered so
// that a package always precedes its importers, plus the static call
// graph spanning them. It is the unit interprocedural analyzers run
// over — per-package passes execute in dependency order so facts flow
// from callee packages to caller packages, and module passes see the
// finished graph.
type Module struct {
	Loader *Loader
	// Pkgs holds every loaded module package in dependency order
	// (imported before importer).
	Pkgs []*Package
	// Graph is the static-dispatch call graph over all of Pkgs.
	Graph *CallGraph

	facts *factStore
	sup   suppressions
}

// LoadModule loads the packages named by the given module import paths
// (module-internal dependencies are pulled in automatically), builds
// the call graph, and returns the assembled Module.
func LoadModule(moduleDir, modulePath string, roots []string) (*Module, error) {
	l := NewLoader(moduleDir, modulePath)
	for _, r := range roots {
		if _, err := l.Load(r); err != nil {
			return nil, err
		}
	}
	m := &Module{
		Loader: l,
		facts:  newFactStore(),
	}
	m.Pkgs = dependencyOrder(l.pkgs)
	m.Graph = NewCallGraph()
	for _, pkg := range m.Pkgs {
		m.Graph.AddPackage(pkg)
	}
	var files []*ast.File
	for _, pkg := range m.Pkgs {
		files = append(files, pkg.Files...)
	}
	m.sup = collectSuppressions(l.Fset, files)
	return m, nil
}

// dependencyOrder topologically sorts the loaded packages so every
// package precedes its importers. Ties (unrelated packages) break by
// import path, keeping driver output deterministic.
func dependencyOrder(pkgs map[string]*Package) []*Package {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	var order []*Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		pkg, ok := pkgs[path]
		if !ok || state[path] != 0 {
			return
		}
		state[path] = 1
		imports := pkg.Types.Imports()
		ipaths := make([]string, 0, len(imports))
		for _, imp := range imports {
			ipaths = append(ipaths, imp.Path())
		}
		sort.Strings(ipaths)
		for _, ip := range ipaths {
			visit(ip)
		}
		state[path] = 2
		order = append(order, pkg)
	}
	for _, p := range paths {
		visit(p)
	}
	return order
}

// Package returns the loaded package with the given import path, or nil.
func (m *Module) Package(path string) *Package {
	return m.Loader.pkgs[path]
}

// Run applies the analyzer suite to the module: per-package passes
// (Analyzer.Run) over every package in dependency order first, then
// module passes (Analyzer.RunModule), returning surviving diagnostics
// sorted by position.
func (m *Module) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range m.Pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Module:    m,
				diags:     &diags,
				suppress:  m.sup,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{
			Analyzer: a,
			Module:   m,
			diags:    &diags,
			suppress: m.sup,
		}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// UnknownAllows reports every //simlint:allow directive in the module
// that names an analyzer outside suite: such a directive suppresses
// nothing, so a renamed or retired analyzer would otherwise leave it
// silently inert.
func (m *Module) UnknownAllows(suite []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range suite {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range m.Pkgs {
		forEachAllow(m.Loader.Fset, pkg.Files, func(pos token.Position, name string) {
			if !known[name] {
				diags = append(diags, Diagnostic{
					Pos:      pos,
					Analyzer: "simlint",
					Message:  fmt.Sprintf("//simlint:allow names unknown analyzer %q; the directive suppresses nothing", name),
				})
			}
		})
	}
	sortDiagnostics(diags)
	return diags
}

// ModulePass is the whole-module counterpart of Pass, handed to
// Analyzer.RunModule after every package pass has completed: the full
// package list, the call graph, and the accumulated fact store.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module

	diags    *[]Diagnostic
	suppress suppressions
}

// Fset returns the module's shared file set.
func (p *ModulePass) Fset() *token.FileSet { return p.Module.Loader.Fset }

// Reportf records a finding unless a //simlint:allow comment covers it.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset().Position(pos)
	if p.suppress.allows(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}
