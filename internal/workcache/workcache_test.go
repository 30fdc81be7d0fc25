package workcache

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoComputesOnceAndShares(t *testing.T) {
	var c Cache[int, string]
	var calls atomic.Int64
	for i := 0; i < 5; i++ {
		v, err := c.Do(7, func() (string, error) {
			calls.Add(1)
			return "seven", nil
		})
		if err != nil || v != "seven" {
			t.Fatalf("Do = %q, %v", v, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if hits, misses := c.Stats(); hits != 4 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 4/1", hits, misses)
	}
	if len(c.entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(c.entries))
	}
}

// TestSingleflightUnderContention is the tentpole guarantee: many
// goroutines requesting the same key concurrently trigger exactly one
// computation, and all of them receive its result.
func TestSingleflightUnderContention(t *testing.T) {
	var c Cache[string, *[]int]
	var calls atomic.Int64
	gate := make(chan struct{})
	const workers = 32
	results := make([]*[]int, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, err := c.Do("k", func() (*[]int, error) {
				calls.Add(1)
				s := []int{1, 2, 3}
				return &s, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
	for i, v := range results {
		if v != results[0] {
			t.Fatalf("worker %d received a different pointer: all callers must share one value", i)
		}
	}
}

func TestErrorsAreCached(t *testing.T) {
	var c Cache[int, int]
	boom := errors.New("boom")
	var calls int
	for i := 0; i < 3; i++ {
		_, err := c.Do(1, func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing compute ran %d times, want 1 (errors are deterministic)", calls)
	}
}

func TestDistinctKeysComputeIndependently(t *testing.T) {
	var c Cache[int, int]
	for k := 0; k < 10; k++ {
		v, err := c.Do(k, func() (int, error) { return k * k, nil })
		if err != nil || v != k*k {
			t.Fatalf("Do(%d) = %d, %v", k, v, err)
		}
	}
	if len(c.entries) != 10 {
		t.Fatalf("entries = %d, want 10", len(c.entries))
	}
}

// TestStatsCountWaitersImmediately pins the accounting fix: a waiter
// blocked on an in-flight computation is counted as a hit at lookup
// admission, not when the computation finishes, so hits+misses never
// transiently undercounts concurrent requests.
func TestStatsCountWaitersImmediately(t *testing.T) {
	var c Cache[int, int]
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(1, func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started

	const waiters = 8
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do(1, func() (int, error) { t.Error("waiter recomputed"); return 0, nil })
		}()
	}
	// Wait until all waiters report hits: with admission-time accounting
	// this converges while the computation is still blocked, because each
	// waiter is counted before it parks on the in-flight entry.
	for {
		hits, misses := c.Stats()
		if misses != 1 {
			t.Fatalf("misses = %d while one compute in flight, want 1", misses)
		}
		if hits == waiters {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if hits, misses := c.Stats(); hits != waiters || misses != 1 {
		t.Fatalf("stats = %d/%d after release, want %d/1", hits, misses, waiters)
	}
}

func TestPanicUnpoisonsKey(t *testing.T) {
	var c Cache[int, int]
	func() {
		defer func() { recover() }()
		c.Do(1, func() (int, error) { panic("bang") })
	}()
	// The key must be retryable, not wedged.
	v, err := c.Do(1, func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("retry after panic = %d, %v", v, err)
	}
}
