// Command simlint runs the repository's custom static-analysis suite
// (detrand, resetcheck, sharecheck — see DESIGN.md "Static invariants")
// over the module:
//
//	go run ./cmd/simlint ./...
//
// Unlike a per-package checker, simlint loads every requested package
// (plus its module-internal dependencies) into one driver run, builds
// the static call graph across them, and runs each analyzer once over
// the whole set — the interprocedural check (output-order taint) needs
// the whole module in view.
//
// It prints one line per finding — or one JSON object per line with
// -json, for CI to turn into per-file annotations — and exits nonzero
// when any survive their //simlint:allow / //simlint:resetsafe
// suppressions. A //simlint:<verb> directive that no analyzer of the
// suite reads — an allow naming an analyzer outside the suite, or a
// verb of a retired analyzer — is itself a finding: it does nothing, so
// a renamed or deleted analyzer cannot leave its directives silently
// inert. CI treats a nonzero exit as a build failure, which is the
// point: the invariants these analyzers enforce (explicit RNG streams,
// complete Reset coverage, deterministic output rendering, per-worker
// machine ownership) fail silently at runtime but loudly here. The
// allocation-free hot path is gated by scripts/allocs.sh instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analyzers"
	"repro/internal/analyzers/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the suite's analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-json] [packages]\n\npatterns: ./... style walks, or package directories\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modDir, modPath, err := findModule(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	roots, err := analysis.PackagePaths(modDir, modPath, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}

	mod, err := analysis.LoadModule(modDir, modPath, roots)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := mod.Run(analyzers.All)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	diags = append(diags, mod.UnknownDirectives(analyzers.All)...)

	cwd, _ := os.Getwd()
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		if *jsonOut {
			enc.Encode(struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Column   int    `json:"column"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{name, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
			continue
		}
		fmt.Printf("%s:%d:%d: %s (%s)\n", name, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// findModule walks up from dir to the enclosing go.mod, returning the
// module directory and module path.
func findModule(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", abs)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}
