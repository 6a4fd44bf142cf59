// Package dep exists to prove hotpath's summary facts cross package
// boundaries: its summaries are exported here and imported by the
// hotcalls fixture package.
package dep

// Build allocates a fresh buffer per call.
func Build(n int) []byte {
	return make([]byte, n)
}

// Reuse is clean: it only slices caller storage.
func Reuse(buf []byte, n int) []byte {
	if n > len(buf) {
		n = len(buf)
	}
	return buf[:n]
}
