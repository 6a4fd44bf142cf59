// Package parallel is a fixture stand-in for the module's parallel
// runner: sharecheck recognizes its entry points by package-path suffix
// and name, and treats their func-literal arguments as worker closures.
package parallel

import "context"

// ReduceContext mirrors the runner's signature: fn runs on worker
// goroutines, fold folds each result in index order.
func ReduceContext[T any](ctx context.Context, workers, n int, fn func(worker, index int) (T, error), fold func(index int, v T)) error {
	for i := 0; i < n; i++ {
		v, err := fn(i%workers, i)
		if err != nil {
			return err
		}
		fold(i, v)
	}
	return nil
}
