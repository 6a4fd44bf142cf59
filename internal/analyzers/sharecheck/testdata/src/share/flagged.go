package share

import (
	"context"

	"internal/core"
	"internal/parallel"
)

// Globals holding machines are reachable from every goroutine at once.
var warmSpare *core.Machine // want "never global state"

var warmPool []*core.Machine // want "never global state"

type machineCache struct {
	machines []*core.Machine
}

var globalCache machineCache // want "never global state"

// postSpawnWrite reassigns a captured variable while the goroutine may
// be reading it. The goroutine's own write to total stays silent — it
// is the owner's write, not sharing.
func postSpawnWrite() int {
	total := 0
	done := make(chan struct{})
	go func() {
		total++
		close(done)
	}()
	total = 5 // want "written while it may be running"
	<-done
	return total
}

// loopShared reuses one variable across iterations: iteration k+1's
// write races with iteration k's goroutine, even though the write
// precedes the spawn in source order.
func loopShared(rows [][]byte) {
	var current []byte
	done := make(chan struct{})
	for _, row := range rows {
		current = row // want "written while it may be running"
		go func() {
			_ = current
			done <- struct{}{}
		}()
	}
	for range rows {
		<-done
	}
}

// goMachine captures a machine in a plain goroutine closure.
func goMachine() {
	m := core.NewMachine()
	done := make(chan struct{})
	go func() {
		m.Run() // want "captured by goroutine closure"
		close(done)
	}()
	<-done
}

// workerCapturedMachine shares one machine between all workers.
func workerCapturedMachine(machines []*core.Machine) error {
	m := machines[0]
	return parallel.ReduceContext(context.Background(), 2, 8, func(worker, index int) (int, error) {
		m.Run() // want "captured by worker closure"
		return 0, nil
	}, func(index, v int) {})
}

// workerBadIndex indexes the machine slice by the item index, so two
// workers handling different items can collide on one machine.
func workerBadIndex(machines []*core.Machine) error {
	return parallel.ReduceContext(context.Background(), 2, 8, func(worker, index int) (int, error) {
		machines[index].Run() // want "worker parameter"
		return 0, nil
	}, func(index, v int) {})
}

// foldTouchesMachines reaches machines from the fold, which runs on
// whichever worker deposits the result that unblocks it: it has no
// worker slot of its own, so neither a captured machine nor any index
// into the machine slice is safe there.
func foldTouchesMachines(machines []*core.Machine) error {
	m := machines[0]
	return parallel.ReduceContext(context.Background(), 2, 8, func(worker, index int) (int, error) {
		machines[worker].Run()
		return 0, nil
	}, func(index, v int) {
		m.Run()               // want "captured by fold closure"
		machines[index].Run() // want "worker parameter"
	})
}
