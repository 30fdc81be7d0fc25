package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunIndexedLowestIndexErrorDeterministic pins the multi-failure
// contract: when several jobs fail, the returned error is always the one
// from the lowest-index failing job, regardless of goroutine scheduling.
// The old runner checked the failure flag after claiming an index, so a
// worker that claimed the low failing index could observe a concurrent
// higher-index failure and skip its job entirely, letting the
// higher-index error win. Serve's full-fidelity verification depends on
// this contract to name the lowest blade that dispatched a diverging key.
func TestRunIndexedLowestIndexErrorDeterministic(t *testing.T) {
	errLow := errors.New("low-index failure")
	errHigh := errors.New("high-index failure")
	for iter := 0; iter < 200; iter++ {
		_, err := RunIndexed(16, 100, func(i int) (int, error) {
			switch {
			case i == 9:
				return 0, errLow
			case i >= 10:
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("iter %d: err = %v, want the lowest-index failure", iter, err)
		}
	}
	// A slow low-index failure still wins over fast higher-index ones.
	for iter := 0; iter < 20; iter++ {
		_, err := RunIndexed(8, 40, func(i int) (int, error) {
			if i == 2 {
				time.Sleep(time.Millisecond)
				return 0, errLow
			}
			if i >= 3 {
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("slow iter %d: err = %v, want the lowest-index failure", iter, err)
		}
	}
}

func TestRunIndexedOrderAndCompleteness(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := RunIndexed(workers, 20, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunIndexedZeroJobs(t *testing.T) {
	got, err := RunIndexed(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestRunIndexedPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := RunIndexed(4, 50, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n > 50 {
		t.Fatalf("ran %d jobs for 50 indices", n)
	}
	// Sequential path: fails fast at the erroring index.
	ran.Store(0)
	_, err = RunIndexed(1, 50, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || ran.Load() != 4 {
		t.Fatalf("sequential: err=%v ran=%d, want boom after 4 jobs", err, ran.Load())
	}
}

// TestRunIndexedContainsPanics: a job that panics at index k fails the
// run with an error naming k, on the inline path and on worker
// goroutines alike; every job below k still runs, and the
// lowest-index-error rule ranks the panic like any other failure.
func TestRunIndexedContainsPanics(t *testing.T) {
	const n, k = 32, 11
	errLow, errHigh := errors.New("low-index failure"), errors.New("high-index failure")
	for _, workers := range []int{1, 4} {
		for _, tc := range []struct {
			name    string
			failAt  int   // a plain error at this index (-1: none)
			fail    error // that error
			wantErr error // nil: the panic at k
		}{
			{"alone", -1, nil, nil},
			{"before a higher error", k + 5, errHigh, nil},
			{"after a lower error", k - 4, errLow, errLow},
		} {
			var ran [n]atomic.Bool
			_, err := RunIndexed(workers, n, func(i int) (int, error) {
				ran[i].Store(true)
				switch i {
				case k:
					panic(fmt.Sprintf("boom at %d", i))
				case tc.failAt:
					return 0, tc.fail
				}
				return i, nil
			})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("workers=%d %s: err = %v, want %v", workers, tc.name, err, tc.wantErr)
				}
				continue
			}
			want := fmt.Sprintf("parallel: job %d panicked: boom at %d\n", k, k)
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("workers=%d %s: err = %v, want one starting %q", workers, tc.name, err, want)
			}
			for i := 0; i < k; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers=%d %s: job %d below the panic never ran", workers, tc.name, i)
				}
			}
		}
	}
}
