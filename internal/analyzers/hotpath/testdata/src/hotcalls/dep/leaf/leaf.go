// Package leaf is the far end of a call chain that crosses two package
// boundaries: hotcalls calls into dep, which calls into leaf, which
// allocates.
package leaf

// Alloc allocates a fresh slice per call.
func Alloc(n int) []int {
	return make([]int, n)
}
