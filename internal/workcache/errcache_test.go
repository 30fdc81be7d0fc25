package workcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestErrorDoesNotPoisonUnrelatedKeys: a failed computation must be
// invisible to every other key — concurrent lookups on healthy keys keep
// succeeding while one key fails, under the race detector.
func TestErrorDoesNotPoisonUnrelatedKeys(t *testing.T) {
	var c Cache[int, int]
	boom := errors.New("boom")
	const keys = 8
	const lookupsPerKey = 50
	var wg sync.WaitGroup
	var failures atomic.Int64
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < lookupsPerKey; i++ {
				v, err := c.Do(k, func() (int, error) {
					if k == 3 {
						return 0, boom
					}
					return k * 10, nil
				})
				if k == 3 {
					if !errors.Is(err, boom) {
						failures.Add(1)
					}
					continue
				}
				if err != nil || v != k*10 {
					failures.Add(1)
				}
			}
		}(k)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d lookups got a wrong result: the failing key leaked into its neighbours", n)
	}
	if len(c.entries) != keys {
		t.Fatalf("entries = %d, want %d (error entries are cached too)", len(c.entries), keys)
	}
}

// TestRetryAfterErrorPinned pins the error-retry contract: computations
// are assumed deterministic, so a failed key does NOT recompute on later
// lookups — every retry observes the cached error without re-running the
// (possibly expensive, possibly side-effecting) compute function. A
// behavior change here silently alters sweep costs; this test makes it a
// conscious decision.
func TestRetryAfterErrorPinned(t *testing.T) {
	var c Cache[string, int]
	var calls atomic.Int64
	compute := func() (int, error) {
		calls.Add(1)
		return 0, fmt.Errorf("transient-looking failure %d", calls.Load())
	}
	_, err1 := c.Do("k", compute)
	_, err2 := c.Do("k", compute)
	if err1 == nil || err2 == nil {
		t.Fatal("failing compute reported success")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("retry saw a different error (%q vs %q): errors must be cached verbatim", err1, err2)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times after an error, want 1 (no retry-recompute)", n)
	}
}

// TestConcurrentErrorSingleflight: many goroutines hitting one failing
// key still trigger exactly one computation, and all observe its error.
func TestConcurrentErrorSingleflight(t *testing.T) {
	var c Cache[int, int]
	boom := errors.New("boom")
	var calls atomic.Int64
	gate := make(chan struct{})
	const workers = 32
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			_, errs[i] = c.Do(1, func() (int, error) {
				calls.Add(1)
				return 0, boom
			})
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("failing compute ran %d times under contention, want 1", n)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("worker %d got %v, want the shared error", i, err)
		}
	}
}
