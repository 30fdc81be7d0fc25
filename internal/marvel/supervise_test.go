package marvel

import (
	"testing"

	"cellport/internal/sim"
)

// TestBackoffDelayTable pins the retry-backoff schedule over attempt
// indices: 1-based numbering (the first retry waits the base delay, not
// zero), out-of-range attempts clamp to the first retry, and the doubling
// saturates at maxBackoffShift so no attempt count can shift the base out
// of sim.Duration's range.
func TestBackoffDelayTable(t *testing.T) {
	const base = 100 * sim.Microsecond
	cases := []struct {
		attempt int
		want    sim.Duration
	}{
		{attempt: -1, want: base}, // defensive clamp
		{attempt: 0, want: base},  // defensive clamp
		{attempt: 1, want: base},  // first retry: base, not base<<-1 or zero
		{attempt: 2, want: base << 1},
		{attempt: 3, want: base << 2},
		{attempt: 4, want: base << 3},
		{attempt: maxBackoffShift + 1, want: base << maxBackoffShift},
		{attempt: maxBackoffShift + 2, want: base << maxBackoffShift}, // saturated
		{attempt: 40, want: base << maxBackoffShift},
		{attempt: 64, want: base << maxBackoffShift}, // would overflow uncapped
		{attempt: 1 << 20, want: base << maxBackoffShift},
	}
	for _, tc := range cases {
		got := BackoffDelay(base, tc.attempt)
		if got != tc.want {
			t.Errorf("BackoffDelay(base, %d) = %v, want %v", tc.attempt, got, tc.want)
		}
		if got <= 0 {
			t.Errorf("BackoffDelay(base, %d) = %v: non-positive delay would skip the sleep", tc.attempt, got)
		}
	}
}
