package render

import (
	"io"
	"maps"
	"slices"
	"sort"
)

// No want comments in this file: every construct here must stay silent.

// sortedRender collects keys with the canonical idiom — the range body
// only appends the key, and the slice is sorted before use — so no
// annotation is needed.
func sortedRender(w io.Writer, counts map[string]int) {
	var names []string
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		io.WriteString(w, name)
	}
}

// sortedKeysRender uses the slices.Sorted(maps.Keys(...)) form.
func sortedKeysRender(w io.Writer, counts map[string]int) {
	for _, name := range slices.Sorted(maps.Keys(counts)) {
		io.WriteString(w, name)
	}
}

// allowedTotal is order-insensitive and says so.
func allowedTotal(w io.Writer, counts map[string]int) {
	total := 0
	for _, n := range counts { //simlint:allow detrand order-insensitive sum
		total += n
	}
	if total > 0 {
		io.WriteString(w, "nonzero\n")
	}
}

// offline never reaches a sink: map iteration here is invisible to
// rendered output, so detrand stays silent (render is outside Scope).
func offline(counts map[string]int) int {
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}
