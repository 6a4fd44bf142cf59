package hot

import (
	"errors"
	"fmt"
)

var keep func() int

func eat(v any) { _ = v }

func fresh() []int { return nil }

// bad commits every construct the analyzer forbids, one per line.
//
//simlint:hotpath
func bad(k int) any {
	local := []int{}              // want "slice/map literal allocates"
	local = append(local, k)      // want "append onto local, which is not parameter- or receiver-rooted"
	_ = append(fresh(), k)        // want "append onto a non-parameter slice"
	fmt.Println(k)                // want "fmt.Println call formats"
	cb := func() int { return k } // want "closure may escape"
	keep = cb                     // the non-call use that makes the literal above escape
	eat(k)                        // want "concrete value boxed into interface parameter"
	var boxed any = k             // want "concrete value boxed into interface"
	_ = boxed
	_ = any(k) // want "conversion boxes concrete value into interface"
	return k   // want "concrete value boxed into interface return"
}

// badAllocs commits the remaining allocating constructs.
//
//simlint:hotpath
func badAllocs(s string, b []byte) {
	_ = new(int)            // want "new allocates"
	_ = make([]int, len(s)) // want "make allocates"
	_ = &pool{}             // want "&composite literal allocates"
	_ = map[int]int{}       // want "slice/map literal allocates"
	_ = s + s               // want "string concatenation allocates"
	_ = []byte(s)           // want "string conversion copies"
	_ = string(b)           // want "string conversion copies"
	go func() {}()          // want "go statement allocates a goroutine"
	_ = errors.New(s)       // want "errors.New call formats"
}

// cold is the un-annotated escape valve: the same constructs are fine
// off the hot path (no want comments).
func cold(k int) any {
	fmt.Println(k)
	local := []int{}
	local = append(local, k)
	return local
}

// wrap and stash box a concrete value on return and on assignment.
// Neither is annotated, so they reach hot code only through their
// summaries.
func wrap(v int) any { return v }

var slot any

func stash(v int) { slot = v }

//simlint:hotpath
func viaWrap(v int) any {
	return wrap(v) // want "hot path calls wrap, which boxes into an interface"
}

//simlint:hotpath
func viaStash(v int) {
	stash(v) // want "hot path calls stash, which boxes into an interface"
}
