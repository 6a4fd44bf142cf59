// Package dep exists to prove hotpath's summaries cross package
// boundaries: they are computed here, before any importer, and folded
// by the hotcalls fixture package's callers.
package dep

import "hotcalls/dep/leaf"

// Build allocates a fresh buffer per call.
func Build(n int) []byte {
	return make([]byte, n)
}

// Wrap is clean itself but reaches leaf.Alloc, one package further.
func Wrap(n int) int {
	return len(leaf.Alloc(n))
}

// Reuse is clean: it only slices caller storage.
func Reuse(buf []byte, n int) []byte {
	if n > len(buf) {
		n = len(buf)
	}
	return buf[:n]
}
