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
// graph spanning them. It is the unit every analyzer runs over, once.
type Module struct {
	Loader *Loader
	// Pkgs holds every loaded module package in dependency order
	// (imported before importer).
	Pkgs []*Package
	// Graph is the static-dispatch call graph over all of Pkgs.
	Graph *CallGraph

	sup suppressions
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
	m := &Module{Loader: l}
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

// Run applies each analyzer of the suite once to the module,
// returning surviving diagnostics sorted by position.
func (m *Module) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if err := a.Run(&Pass{Analyzer: a, Module: m, diags: &diags}); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// UnknownDirectives reports every //simlint: directive in the module
// that no analyzer of suite reads: an allow naming an analyzer outside
// the suite, or a verb other than allow that no analyzer lists in its
// Directives. Such a directive does nothing, so a renamed or retired
// analyzer would otherwise leave it silently inert.
func (m *Module) UnknownDirectives(suite []*Analyzer) []Diagnostic {
	analyzers, verbs := map[string]bool{}, map[string]bool{"allow": true}
	for _, a := range suite {
		analyzers[a.Name] = true
		for _, v := range a.Directives {
			verbs[v] = true
		}
	}
	var diags []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: pos, Analyzer: "simlint", Message: fmt.Sprintf(format, args...)})
	}
	for _, pkg := range m.Pkgs {
		forEachDirective(m.Loader.Fset, pkg.Files, func(pos token.Position, verb, allowed string) {
			if !verbs[verb] {
				report(pos, "//simlint:%s is read by no analyzer in the suite; the directive does nothing", verb)
			} else if allowed != "" && !analyzers[allowed] {
				report(pos, "//simlint:allow names unknown analyzer %q; the directive suppresses nothing", allowed)
			}
		})
	}
	sortDiagnostics(diags)
	return diags
}
