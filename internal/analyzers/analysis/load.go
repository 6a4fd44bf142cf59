package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path within the loaded module (for
	// analysistest fixtures, the directory relative to testdata/src).
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module from source.
// Standard-library imports are satisfied by go/importer's source
// importer (type-checked from GOROOT source — no export data or module
// cache needed); module-internal imports are resolved recursively
// through the loader itself. Only non-test files are loaded: simlint's
// invariants guard the simulator proper, and test files routinely use
// wall-clock time, shared RNG convenience APIs, and map iteration in
// ways that are harmless there.
type Loader struct {
	// ModuleDir is the filesystem root the module's import paths are
	// resolved under.
	ModuleDir string
	// ModulePath is the module's import-path prefix ("repro" for this
	// repository). Empty means import paths are directories relative to
	// ModuleDir (the analysistest layout).
	ModulePath string

	Fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	// loading guards against import cycles, which go/types would
	// otherwise chase forever.
	loading map[string]bool
}

// NewLoader returns a loader rooted at moduleDir for modulePath.
func NewLoader(moduleDir, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		ModuleDir:  moduleDir,
		ModulePath: modulePath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
}

// moduleRel maps an import path to its directory below ModuleDir, or
// ok=false when the path is not part of the loaded module.
func (l *Loader) moduleRel(path string) (string, bool) {
	if l.ModulePath == "" {
		// Fixture layout: every relative path is in-module.
		if path == "" || strings.HasPrefix(path, ".") {
			return "", false
		}
		return path, true
	}
	if path == l.ModulePath {
		return ".", true
	}
	if strings.HasPrefix(path, l.ModulePath+"/") {
		return strings.TrimPrefix(path, l.ModulePath+"/"), true
	}
	return "", false
}

// Import implements types.Importer over both resolution domains.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.moduleRel(path); ok {
		if l.ModulePath == "" {
			// Fixture imports are only in-module if the directory
			// exists; otherwise fall through to the stdlib importer
			// (fixtures import "time", "math/rand", ...).
			if _, err := os.Stat(filepath.Join(l.ModuleDir, filepath.FromSlash(rel))); err == nil {
				pkg, err := l.Load(path)
				if err != nil {
					return nil, err
				}
				return pkg.Types, nil
			}
		} else {
			pkg, err := l.Load(path)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	}
	return l.std.Import(path)
}

// Load parses and type-checks the module package at the given import
// path (cached per loader).
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel, ok := l.moduleRel(path)
	if !ok {
		return nil, fmt.Errorf("package %q is outside module %q", path, l.ModulePath)
	}
	dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("listing %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)

	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}

	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// PackagePaths resolves go-tool-style patterns to the import paths of
// the module packages they name. "dir/..." walks recursively, skipping
// testdata, hidden, and underscore directories (the go tool's rules);
// a directory counts as a package only if it holds a non-test Go file.
func PackagePaths(modDir, modPath string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) error {
		if !hasGoFiles(dir) {
			return nil
		}
		path, err := importPath(modDir, modPath, dir)
		if err == nil && !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
		return err
	}
	for _, p := range patterns {
		base, ok := strings.CutSuffix(p, "/...")
		if !ok {
			if err := add(p); err != nil {
				return nil, err
			}
			continue
		}
		if base == "" {
			base = "."
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return add(path)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// hasGoFiles reports whether dir directly contains a non-test Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// importPath maps a package directory to its import path inside the
// module.
func importPath(modDir, modPath, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(modDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, modPath)
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}
