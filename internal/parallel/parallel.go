// Package parallel fans independent, seeded simulation runs out across a
// fixed-size worker pool. The discrete-event kernel stays strictly
// single-threaded within one run; parallelism exists only BETWEEN runs,
// which share no mutable state (each worker owns its own core.Machine).
// Results are merged in task-index order, so parallel output is identical
// — byte for byte — to what the equivalent sequential loop produces.
package parallel

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Workers normalizes a -j style request: values below 1 mean "one worker
// per available CPU" (GOMAXPROCS, which tracks runtime.NumCPU unless
// overridden).
func Workers(j int) int {
	if j < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// ReduceContext runs fn(worker, index) for every index in [0, n) using at
// most `workers` concurrent goroutines and folds each successful result —
// in strictly increasing index order — into caller state via fold, then
// drops it. `worker` identifies which pool slot (0..workers-1) is
// executing the call — use it to select per-worker state such as a
// Machine, so concurrent tasks never share one. fn must depend only on
// its arguments (plus per-worker state) for the sequential/parallel
// equivalence to hold; a caller that needs every result keeps it from
// fold, indexed by index.
//
// Retained memory is O(workers), not O(n). A worker that completes index
// i parks its result until every lower index has been folded or recorded
// as failed, and a bounded reordering window keeps the parking lot small:
// no task runs more than `workers` indices ahead of the fold frontier (a
// worker that pulls too far ahead blocks until the frontier catches up),
// so at most `workers` results exist outside the fold at any moment.
//
// fold is called under an internal lock — never concurrently with itself
// — on whichever worker goroutine deposits the result that unblocks the
// index order; it must not call back into the reducer.
//
// All n indices are attempted even if some fail, fold is skipped for
// failed indices, and the error of the lowest failing index is returned,
// matching what a sequential loop would have reported first. Cancellation
// is between tasks, since a discrete-event run cannot be preempted
// mid-flight: once ctx is done no new task starts — every index not yet
// claimed fails immediately with ctx's error — while tasks already
// executing run to completion and are folded. Callers that need to know
// whether a timeout (rather than a task failure) cut the run short check
// errors.Is(err, ctx.Err()). With workers <= 1 the tasks run and fold
// inline on the calling goroutine in index order, with the same contract.
//
// Worker goroutines are labeled with pprof tag worker=<slot>, so CPU
// profiles taken during a parallel reduction attribute samples per pool
// slot.
func ReduceContext[T any](ctx context.Context, workers, n int, fn func(worker, index int) (T, error), fold func(index int, v T)) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			v, err := fn(0, i)
			if err != nil {
				errs[i] = err
				continue
			}
			fold(i, v)
		}
		return firstError(errs)
	}
	var (
		mu       sync.Mutex
		frontier = sync.NewCond(&mu)
		pending  = make(map[int]T, workers)
		failed   = make([]bool, n)
		nextOut  int // lowest index not yet folded or skipped
	)
	window := workers
	// deposit parks index i's outcome and drains the in-order prefix.
	// Failed indices contribute no value and are skipped by the drain.
	deposit := func(i int, v T, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if ok {
			pending[i] = v
		} else {
			failed[i] = true
		}
		advanced := false
		for nextOut < n {
			if failed[nextOut] {
				nextOut++
				advanced = true
				continue
			}
			v, ready := pending[nextOut]
			if !ready {
				break
			}
			delete(pending, nextOut)
			fold(nextOut, v)
			nextOut++
			advanced = true
		}
		if advanced {
			frontier.Broadcast()
		}
	}
	// await blocks until index i is inside the reordering window. Safe
	// from deadlock: the holder of the lowest undeposited index is never
	// blocked here (i >= nextOut+window implies at least `window` lower
	// indices are still undeposited), so the frontier always advances.
	await := func(i int) {
		mu.Lock()
		for i >= nextOut+window {
			frontier.Wait()
		}
		mu.Unlock()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			pprof.Do(context.Background(),
				pprof.Labels("worker", strconv.Itoa(worker)),
				func(context.Context) {
					for {
						i := int(next.Add(1)) - 1
						if i >= n {
							return
						}
						await(i)
						var zero T
						if err := ctx.Err(); err != nil {
							errs[i] = err
							deposit(i, zero, false)
							continue
						}
						v, err := fn(worker, i)
						if err != nil {
							errs[i] = err
							deposit(i, zero, false)
							continue
						}
						deposit(i, v, true)
					}
				})
		}(w)
	}
	wg.Wait()
	return firstError(errs)
}

// firstError returns the error at the lowest index, or nil.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
