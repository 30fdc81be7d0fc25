package parallel

import (
	"errors"
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
