package hotcalls

import (
	"fmt"

	"hotcalls/dep"
)

// grow allocates locally: the unannotated helper a hot caller reaches.
func grow(n int) []int {
	return make([]int, n)
}

// indirect is clean itself but transitively reaches grow.
func indirect(n int) int {
	return len(grow(n))
}

// step is the regression class callee summaries exist to close: its
// own body is clean (it is just a call), but the callee allocates — a
// per-function check accepts this.
//
//simlint:hotpath
func step(n int) int {
	buf := grow(n) // want "hot path calls grow, which may allocate"
	return len(buf)
}

// deep flags through two levels of unannotated callees.
//
//simlint:hotpath
func deep(n int) int {
	return indirect(n) // want "hot path calls indirect, which may allocate"
}

// crossPkg flags through a summary computed in another package.
//
//simlint:hotpath
func crossPkg(n int) int {
	return len(dep.Build(n)) // want "hot path calls Build, which may allocate: make allocates"
}

// twoPkgs flags through a chain that crosses two package boundaries:
// dep.Wrap's summary folds leaf.Alloc's, which must be final first.
//
//simlint:hotpath
func twoPkgs(n int) int {
	return dep.Wrap(n) // want "hot path calls Wrap, which may allocate: via Alloc: make allocates"
}

// boxer passes a concrete value into an interface parameter.
func boxer(v int) {
	sink(v)
}

func sink(v any) { _ = v }

// boxing callees are flagged too.
//
//simlint:hotpath
func viaBoxer(v int) {
	boxer(v) // want "hot path calls boxer, which boxes into an interface"
}

// formatter reaches fmt.
func formatter(v int) string {
	return fmt.Sprint(v)
}

//simlint:hotpath
func viaFormatter(v int) string {
	return formatter(v) // want "hot path calls formatter, which formats"
}

// badCold is missing its mandatory reason, so it neither cuts
// propagation nor escapes its own diagnostic.
//
//simlint:cold
func badCold(n int) []int { // want "//simlint:cold needs a reason"
	return make([]int, n)
}

//simlint:hotpath
func viaBadCold(n int) int {
	return len(badCold(n)) // want "hot path calls badCold, which may allocate"
}
