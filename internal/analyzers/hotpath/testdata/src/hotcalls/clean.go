package hotcalls

// No want comments in this file: every construct here must stay silent.

// fill appends onto caller-provided storage only — its summary is
// clean, so hot callers may use it freely.
func fill(buf []int, n int) []int {
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	return buf
}

// coldPanic is deliberately off the steady-state path; the reason makes
// the annotation effective.
//
//simlint:cold panic formatting is unreachable in steady state
func coldPanic(code int) {
	panic("bad state: " + string(rune('0'+code)))
}

// hotLeaf is policed at its own annotation; edges into it are trusted.
//
//simlint:hotpath
func hotLeaf(buf []int) int {
	return len(buf)
}

// okHot exercises every silent edge: a clean helper, a cold-with-reason
// helper, another hot function, and an allowed call site.
//
//simlint:hotpath
func okHot(buf []int, n int) int {
	buf = fill(buf, n)
	if n < 0 {
		coldPanic(n)
	}
	total := hotLeaf(buf)
	total += len(grow(n)) //simlint:allow hotpath warm-up branch runs once per campaign
	return total
}
