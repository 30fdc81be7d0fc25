// Package parallel provides the bounded worker pool used to fan
// independent, deterministic simulation runs out over host goroutines.
// Both the experiment harness and the serving layer route their
// index-addressed job grids through RunIndexed, so parallel host
// execution returns byte-identical artifacts to the sequential path.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// call runs job(i), turning a panic into an error naming i (with the
// panicking goroutine's stack, which is gone once the worker returns) so
// that it fails the run instead of killing the process from a worker.
func call[T any](job func(int) (T, error), i int) (r T, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("parallel: job %d panicked: %v\n%s", i, v, debug.Stack())
		}
	}()
	return job(i)
}

// RunIndexed executes job(0..n-1) on up to `workers` goroutines and
// returns the results in index order. workers <= 0 means GOMAXPROCS;
// workers == 1 runs every job inline on the calling goroutine (the
// sequential path). On failure, every job that was already claimed runs
// to completion and the error of the lowest-index failing job is
// returned; only jobs not yet claimed when a failure was observed are
// skipped. Because indices are claimed in increasing order and a claimed
// job always executes, the lowest failing index is always among the
// executed jobs, so the returned error is deterministic no matter how
// the goroutines are scheduled (pinned by
// TestRunIndexedLowestIndexErrorDeterministic). A job that panics fails
// with an error naming its index, on either path.
func RunIndexed[T any](workers, n int, job func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			r, err := call(job, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				// The failure check happens BEFORE claiming an index: once an
				// index is claimed its job always runs, so a lower-index
				// failure can never be silently skipped in favour of a
				// higher-index error that happened to complete first.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := call(job, i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
