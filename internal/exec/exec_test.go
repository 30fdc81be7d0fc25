package exec

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestExecutorDrainsOnClose(t *testing.T) {
	e := New(4)
	var ran atomic.Int64
	for i := 0; i < 500; i++ {
		f := Go(e, func() int { ran.Add(1); return i })
		Then(e, f, func(int) int { ran.Add(1); return 0 })
	}
	e.Close()
	if got := ran.Load(); got != 1000 {
		t.Fatalf("ran %d of 1000 tasks after Close", got)
	}
	if s := e.Stats(); s.Ran != 1000 {
		t.Fatalf("Stats().Ran = %d, want the 1000 tasks started", s.Ran)
	}
}

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	e := New(0)
	defer e.Close()
	if e.Workers() <= 0 {
		t.Fatalf("Workers() = %d, want > 0", e.Workers())
	}
}

func TestFutureChain(t *testing.T) {
	e := New(2)
	defer e.Close()
	f := Go(e, func() int { return 3 })
	g := Then(e, f, func(v int) int { return v * 7 })
	h := Then(e, g, func(v int) string {
		if v != 21 {
			t.Errorf("chained value = %d, want 21", v)
		}
		return "done"
	})
	if got := h.Wait(); got != "done" {
		t.Fatalf("Wait() = %q, want %q", got, "done")
	}
}

func TestThenOnCompletedFuture(t *testing.T) {
	e := New(1)
	defer e.Close()
	f := Go(e, func() int { return 10 })
	f.Wait()
	if got := Then(e, f, func(v int) int { return v + 1 }).Wait(); got != 11 {
		t.Fatalf("Then on completed future = %d, want 11", got)
	}
}

func TestWhenAllPreservesInputOrder(t *testing.T) {
	e := New(4)
	defer e.Close()
	var fs []*Future[int]
	for i := 0; i < 64; i++ {
		i := i
		fs = append(fs, Go(e, func() int {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // scramble completion order
			}
			return i
		}))
	}
	vals := WhenAll(e, fs).Wait()
	if len(vals) != 64 {
		t.Fatalf("WhenAll returned %d values, want 64", len(vals))
	}
	for i, v := range vals {
		if v != i {
			t.Fatalf("vals[%d] = %d, want %d (input order must be preserved)", i, v, i)
		}
	}
}

func TestWhenAllEmpty(t *testing.T) {
	e := New(1)
	defer e.Close()
	if vals := WhenAll[int](e, nil).Wait(); vals != nil {
		t.Fatalf("WhenAll(nil) = %v, want nil", vals)
	}
}

// TestPanicBecomesError checks that a panicking task fails its future
// instead of the process: Then skips its function and carries the
// error on, and WhenAll reports the first failed input in input order.
func TestPanicBecomesError(t *testing.T) {
	e := New(2)
	defer e.Close()
	ok := Go(e, func() int { return 1 })
	bad := Go(e, func() int { panic("boom") })
	worse := Go(e, func() int { panic("bang") })
	if err := bad.Err(); err == nil || !strings.Contains(err.Error(), "panic: boom") {
		t.Fatalf("panicking task's error = %v, want panic: boom", err)
	}
	var ran atomic.Bool
	next := Then(e, bad, func(int) int { ran.Store(true); return 2 })
	if err := next.Err(); !errors.Is(err, bad.Err()) || ran.Load() {
		t.Fatalf("Then after a failed input: err %v, fn ran %v; want the input's error and no run", err, ran.Load())
	}
	if err := WhenAll(e, []*Future[int]{ok, worse, bad}).Err(); err != worse.Err() {
		t.Fatalf("WhenAll error = %v, want the first failed input's %v", err, worse.Err())
	}
	if err := ok.Err(); err != nil {
		t.Fatalf("healthy task failed: %v", err)
	}
}

// TestWidthBound checks that no more than Workers tasks run at once.
func TestWidthBound(t *testing.T) {
	const width = 3
	e := New(width)
	var running, peak atomic.Int64
	for i := 0; i < 64; i++ {
		Go(e, func() int {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(50 * time.Microsecond)
			running.Add(-1)
			return 0
		})
	}
	e.Close()
	if p := peak.Load(); p > width {
		t.Fatalf("%d tasks ran at once on a width-%d executor", p, width)
	}
}
