// Package sim is a detrand fixture standing in for the real simulation
// packages: its import path (internal/sim) puts it in scope.
package sim

import (
	"maps"
	"math/rand"
	"slices"
	"time"
)

// wallClock: host time is forbidden in simulation code.
func wallClock() time.Time {
	return time.Now() // want "time.Now in simulation code"
}

// globalDraw: package-level math/rand functions share process state.
func globalDraw() int {
	return rand.Intn(6) // want "global math/rand.Intn draws from shared process-wide state"
}

// seededDraw: explicit generators and their methods are fine.
func seededDraw() float64 {
	r := rand.New(rand.NewSource(7))
	return r.Float64()
}

// sumMap: bare map iteration is flagged.
func sumMap(m map[string]int) int {
	t := 0
	for _, v := range m { // want "map iteration order is nondeterministic"
		t += v
	}
	return t
}

// sumMapAllowed: the same reduction under an allow annotation is not.
func sumMapAllowed(m map[string]int) int {
	t := 0
	//simlint:allow detrand commutative sum, order-insensitive
	for _, v := range m {
		t += v
	}
	return t
}

// keyReads: maps.Keys and maps.Values iterate in map order too; only
// the slices.Sorted wrapper erases it.
func keyReads(m map[string]int) ([]int, []string) {
	n := 0
	for k := range maps.Keys(m) { // want "unsorted map-key read is nondeterministic"
		n += len(k)
	}
	vals := slices.Collect(maps.Values(m)) // want "unsorted map-key read is nondeterministic"
	return append(vals, n), slices.Sorted(maps.Keys(m))
}

// concurrency: goroutines and select leak runtime scheduling order.
func concurrency(c chan int) int {
	go send(c) // want "go statement outside internal/parallel"
	select {   // want "select statement outside internal/parallel"
	case v := <-c:
		return v
	default:
	}
	return 0
}

func send(c chan int) { c <- 1 }
