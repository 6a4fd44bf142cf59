// Package render is a detrand fixture outside Scope: map iteration is
// flagged only in functions reachable from an output sink.
package render

import (
	"fmt"
	"io"
	"maps"
)

// Render is a structural sink root: it has an io.Writer parameter.
func Render(w io.Writer, counts map[string]int) {
	for name, n := range counts { // want "map iteration order can reach rendered output"
		fmt.Fprintf(w, "%s %d\n", name, n)
	}
	writeRows(w, counts)
}

// writeRows is reachable from Render; its iteration is flagged even
// though it takes the writer indirectly.
func writeRows(w io.Writer, counts map[string]int) {
	for name := range counts { // want "map iteration order can reach rendered output"
		io.WriteString(w, name)
	}
}

// unsortedKeys reads map keys without sorting, two calls below the sink.
func unsortedKeys(counts map[string]int) []string {
	var names []string
	for name := range maps.Keys(counts) { // want "unsorted map-key read can reach rendered output"
		names = append(names, name)
	}
	return names
}

// RenderKeyed is another sink that reaches unsortedKeys.
func RenderKeyed(w io.Writer, counts map[string]int) {
	for _, name := range unsortedKeys(counts) {
		io.WriteString(w, name)
	}
}
