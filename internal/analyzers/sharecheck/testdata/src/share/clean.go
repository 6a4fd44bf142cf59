package share

import (
	"context"

	"internal/core"
	"internal/parallel"
)

// No want comments in this file: every construct here must stay silent.

// preSpawnInit writes the captured variable only before the spawn —
// initialization, sequenced before the goroutine starts.
func preSpawnInit() int {
	total := 42
	done := make(chan struct{})
	go func() {
		_ = total
		close(done)
	}()
	<-done
	return total
}

// perIteration declares the captured variable inside the loop: Go loop
// scoping makes it fresh each iteration, and its only write precedes
// its own goroutine's spawn.
func perIteration(rows [][]byte) {
	done := make(chan struct{})
	for _, row := range rows {
		current := row
		go func() {
			_ = current
			done <- struct{}{}
		}()
	}
	for range rows {
		<-done
	}
}

// machineAsArg hands the machine to the goroutine explicitly: the
// parameter transfers ownership, nothing is captured.
func machineAsArg() {
	m := core.NewMachine()
	done := make(chan struct{})
	go func(mm *core.Machine) {
		mm.Run()
		close(done)
	}(m)
	<-done
}

// perWorkerMachines is the sanctioned pattern: one machine per worker
// slot, always indexed by the closure's worker parameter.
func perWorkerMachines(machines []*core.Machine) error {
	return parallel.ReduceContext(context.Background(), 2, 8, func(worker, index int) (int, error) {
		machines[worker].Run()
		return 0, nil
	}, func(index, v int) {})
}

// allowedPostWait writes after the spawn, but the channel receive
// proves the ordering, so the site carries an allow with its reason.
func allowedPostWait() int {
	state := 0
	done := make(chan struct{})
	go func() {
		state = 1
		close(done)
	}()
	<-done
	state = 2 //simlint:allow sharecheck happens-after the channel receive above
	return state
}
