package main

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// Every artifact name resolves to exactly one table entry, so no -exp
// value runs a campaign twice or renders an artifact twice.
func TestEveryNameHasOneEntry(t *testing.T) {
	count := map[string]int{}
	for _, e := range table {
		for _, name := range e.names {
			count[name]++
		}
	}
	if len(count) != 16 {
		t.Errorf("table renders %d artifacts, want 16 (fig1..fig14, table1, table2)", len(count))
	}
	for name, n := range count {
		if n != 1 {
			t.Errorf("artifact %q appears in %d entries", name, n)
		}
		if sel := selection(name); len(sel) != 1 || !sel[name] {
			t.Errorf("-exp %s selects %v, want only itself", name, sel)
		}
	}
	if got := len(selection("all")); got != len(count) {
		t.Errorf("-exp all selects %d artifacts, want %d", got, len(count))
	}
}

func TestT2FamilySelection(t *testing.T) {
	sel := selection(t2family)
	want := []string{"table2", "fig2", "fig5", "fig6", "fig7", "fig8"}
	if len(sel) != len(want) {
		t.Errorf("t2family selects %v, want %v", sel, want)
	}
	for _, name := range want {
		if !sel[name] {
			t.Errorf("t2family misses %s", name)
		}
	}
}

// An unknown name selects nothing, and the usage message lists every
// name the command accepts.
func TestUnknownNameRejected(t *testing.T) {
	if sel := selection("fig15"); len(sel) != 0 {
		t.Errorf("unknown name selects %v", sel)
	}
	valid := strings.Fields(validNames())
	names := []string{"all", t2family}
	for name := range selection("all") {
		names = append(names, name)
	}
	for _, name := range names {
		if !slices.Contains(valid, name) {
			t.Errorf("usage message omits %q", name)
		}
	}
	for _, name := range valid {
		if len(selection(name)) == 0 {
			t.Errorf("listed name %q selects nothing", name)
		}
	}
}

// The fig1 entry renders the experiments package's golden bytes under
// the Bench profile.
func TestFig1EntryMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../../internal/experiments/testdata/fig1.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range table {
		if !slices.Contains(e.names, "fig1") {
			continue
		}
		rs, err := e.run(experiments.Bench(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := rs[slices.Index(e.names, "fig1")].Render(); got != string(want) {
			t.Errorf("fig1 entry output differs from fig1.golden:\n%s", got)
		}
		return
	}
	t.Fatal("no fig1 entry")
}
