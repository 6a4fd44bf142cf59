package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// The TestMap* tests pin the per-task half of ReduceContext's contract —
// which tasks run, on which worker slot, in what result order, and which
// error comes back; the TestReduce* tests pin the fold half.

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16, 100} {
		var got []int
		err := ReduceContext(context.Background(), workers, 50, func(worker, index int) (int, error) {
			return index * index, nil
		}, func(index int, v int) {
			got = append(got, v)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: len=%d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapParallelMatchesSequential(t *testing.T) {
	run := func(workers int) []string {
		var out []string
		err := ReduceContext(context.Background(), workers, 37, func(worker, index int) (string, error) {
			return fmt.Sprintf("task-%03d", index), nil
		}, func(index int, v string) {
			out = append(out, v)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(8)
	if len(seq) != len(par) {
		t.Fatalf("sequential folded %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("index %d: sequential %q != parallel %q", i, seq[i], par[i])
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 8} {
		err := ReduceContext(context.Background(), workers, 20, func(worker, index int) (int, error) {
			switch index {
			case 3:
				return 0, errLow
			case 17:
				return 0, errHigh
			}
			return index, nil
		}, func(int, int) {})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: err=%v, want %v", workers, err, errLow)
		}
	}
}

// TestMapReturnsPartialResultsOnError pins the salvage contract: when
// some tasks fail, every successful index is still folded with its value
// and no failed index is, alongside the lowest-index error. All n tasks
// must have been attempted, on both the inline and the pooled path.
func TestMapReturnsPartialResultsOnError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		var attempted atomic.Int64
		folded := map[int]int{}
		err := ReduceContext(context.Background(), workers, 20, func(worker, index int) (int, error) {
			attempted.Add(1)
			if index%5 == 2 { // fails 2, 7, 12, 17
				return -1, boom
			}
			return index * 10, nil
		}, func(index int, v int) {
			folded[index] = v
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err=%v, want %v", workers, err, boom)
		}
		if got := attempted.Load(); got != 20 {
			t.Fatalf("workers=%d: attempted %d tasks, want all 20", workers, got)
		}
		for i := 0; i < 20; i++ {
			v, ok := folded[i]
			if i%5 == 2 {
				if ok {
					t.Fatalf("workers=%d: failed index %d folded", workers, i)
				}
				continue
			}
			if !ok || v != i*10 {
				t.Fatalf("workers=%d: folded[%d]=%d (folded %v), want %d", workers, i, v, ok, i*10)
			}
		}
	}
}

func TestMapWorkerIndexStaysInPool(t *testing.T) {
	const workers = 4
	var used [workers]atomic.Int64
	err := ReduceContext(context.Background(), workers, 200, func(worker, index int) (int, error) {
		if worker < 0 || worker >= workers {
			t.Errorf("worker %d out of range", worker)
			return 0, nil
		}
		used[worker].Add(1)
		return 0, nil
	}, func(int, int) {})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i := range used {
		total += used[i].Load()
	}
	if total != 200 {
		t.Fatalf("tasks executed = %d, want 200", total)
	}
}

func TestMapZeroTasks(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := ReduceContext(context.Background(), workers, 0, func(worker, index int) (int, error) {
			t.Error("fn called with no tasks")
			return 0, nil
		}, func(int, int) {
			t.Error("fold called with no tasks")
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestMapContextAlreadyCancelled pins the caller-cancels contract at its
// boundary: with a context that is done before the reduction starts, no
// task runs and nothing is folded, yet the context's error is reported.
func TestMapContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		err := ReduceContext(ctx, workers, 10, func(worker, index int) (int, error) {
			t.Errorf("workers=%d: task %d ran after cancellation", workers, index)
			return -1, nil
		}, func(index int, v int) {
			t.Errorf("workers=%d: index %d folded after cancellation", workers, index)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
	}
}

// TestMapContextCancelMidMapSequential cancels from inside a task on the
// inline path: tasks up to the cancellation point are folded, tasks after
// it are skipped with the context's error, and the lowest failing index's
// error (the cancellation) is what ReduceContext returns.
func TestMapContextCancelMidMapSequential(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var folded []int
	err := ReduceContext(ctx, 1, 10, func(worker, index int) (int, error) {
		if index == 3 {
			cancel()
		}
		return index * 10, nil
	}, func(index int, v int) {
		if v != index*10 {
			t.Errorf("fold(%d) got %d, want %d", index, v, index*10)
		}
		folded = append(folded, index)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if fmt.Sprint(folded) != "[0 1 2 3]" {
		t.Fatalf("folded %v, want [0 1 2 3] (completed before cancel; the rest skipped)", folded)
	}
}

// TestMapContextCancelMidMapParallel is the pooled-path version: park one
// task per worker on a gate, cancel, then release the gate. The parked
// tasks must run to completion and be folded (a DES run cannot be
// preempted), while every unclaimed index fails with the context's error
// and is never folded.
func TestMapContextCancelMidMapParallel(t *testing.T) {
	const workers, n = 4, 20
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, workers)
	release := make(chan struct{})
	// ReduceContext is synchronous, so the coordinator runs alongside it:
	// once every worker has claimed its first task, cancel, then let the
	// parked tasks finish.
	go func() {
		for i := 0; i < workers; i++ {
			<-started
		}
		cancel()
		close(release)
	}()
	var folded []int
	err := ReduceContext(ctx, workers, n, func(worker, index int) (int, error) {
		started <- struct{}{}
		<-release
		return index + 100, nil
	}, func(index int, v int) {
		if v != index+100 {
			t.Errorf("fold(%d) got %d, want %d", index, v, index+100)
		}
		folded = append(folded, index)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	// The first `workers` indices were claimed before cancellation (the
	// atomic counter hands out 0..workers-1 first) and must have
	// completed; everything after was skipped.
	if fmt.Sprint(folded) != "[0 1 2 3]" {
		t.Fatalf("folded %v, want exactly [0 1 2 3] (one in flight per worker)", folded)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit count not honored")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Error("defaulted worker count must be positive")
	}
}

func TestReduceFoldsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		var got []int
		err := ReduceContext(context.Background(), workers, 50, func(worker, index int) (int, error) {
			return index * 3, nil
		}, func(index int, v int) {
			if v != index*3 {
				t.Fatalf("workers=%d: fold(%d) got %d", workers, index, v)
			}
			got = append(got, index)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: folded %d of 50", workers, len(got))
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: fold order %v not strictly increasing", workers, got)
			}
		}
	}
}

func TestReduceBoundedPending(t *testing.T) {
	// The streaming contract: at most `workers` results exist outside the
	// fold at any moment. Track live (created, not yet folded) results
	// and assert the high-water mark.
	const workers, n = 4, 200
	var live, peak atomic.Int64
	err := ReduceContext(context.Background(), workers, n, func(worker, index int) (int, error) {
		if index == 0 {
			// An adversarially slow first task: without the reordering
			// window the other workers would park O(n) results behind it.
			time.Sleep(30 * time.Millisecond)
		}
		now := live.Add(1)
		for {
			old := peak.Load()
			if now <= old || peak.CompareAndSwap(old, now) {
				break
			}
		}
		return index, nil
	}, func(index int, v int) {
		live.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak live results %d exceeds worker count %d", p, workers)
	}
}

func TestReduceSkipsFailedAndReportsLowest(t *testing.T) {
	boom7, boom31 := errors.New("boom7"), errors.New("boom31")
	for _, workers := range []int{1, 8} {
		var folded []int
		err := ReduceContext(context.Background(), workers, 40, func(worker, index int) (int, error) {
			switch index {
			case 7:
				return 0, boom7
			case 31:
				return 0, boom31
			}
			return index, nil
		}, func(index int, v int) {
			folded = append(folded, index)
		})
		if !errors.Is(err, boom7) {
			t.Fatalf("workers=%d: err=%v, want lowest-index boom7", workers, err)
		}
		if len(folded) != 38 {
			t.Fatalf("workers=%d: folded %d, want 38 survivors", workers, len(folded))
		}
		prev := -1
		for _, idx := range folded {
			if idx == 7 || idx == 31 {
				t.Fatalf("workers=%d: folded failed index %d", workers, idx)
			}
			if idx <= prev {
				t.Fatalf("workers=%d: fold order violated at %d", workers, idx)
			}
			prev = idx
		}
	}
}

func TestReduceContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var folded atomic.Int64
	err := ReduceContext(ctx, 4, 100, func(worker, index int) (int, error) {
		if index == 10 {
			cancel()
		}
		return index, nil
	}, func(index int, v int) {
		folded.Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if f := folded.Load(); f >= 100 {
		t.Fatalf("cancellation did not skip any tasks (folded %d)", f)
	}
}

func TestReduceZeroTasks(t *testing.T) {
	err := ReduceContext(context.Background(), 8, 0, func(worker, index int) (int, error) {
		t.Fatal("task ran for n=0")
		return 0, nil
	}, func(index int, v int) {
		t.Fatal("fold ran for n=0")
	})
	if err != nil {
		t.Fatal(err)
	}
}
