package main

import (
	"math"
	"testing"
)

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// Expected values are (q3 - q1) / median from Python's
	// statistics.quantiles(xs, n=4) and statistics.median(xs).
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 4}, 1.5},
		{[]float64{1, 1, 2, 10}, 4.666666666666667},
		{[]float64{3, 5, 8, 13, 21, 34}, 1.880952380952381},
		{[]float64{0.9, 1.0, 1.1, 1.3, 0.95}, 0.275},
		{[]float64{1.5, 1.5, 1.5}, 0},
		{[]float64{7}, 0},
	} {
		if got := spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 0.99, true}, // 10 samples beyond the 990th
		{999, 0.95, true},  // only 9 beyond p99
		{5000, 0.99, true},
		{200, 0.95, true}, // 10 beyond the 190th
		{199, 0.5, true},  // 9 beyond p95
		{20, 0.5, true},
		{19, 0, false}, // 9 beyond the median
		{0, 0, false},
	} {
		got, ok := tailQuantile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMaxRateAtSLO(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ladder []rung
		want   float64
	}{
		{"every rung meets", []rung{{0.25, true}, {0.5, true}, {1, true}}, 1},
		{"lowest rung fails", []rung{{0.25, false}, {0.5, false}, {1, false}}, 0},
		{"first failure ends the search", []rung{{0.25, true}, {0.5, false}, {1, true}}, 0.25},
		{"unsorted ladder", []rung{{1, false}, {0.125, true}, {0.5, false}, {0.25, true}}, 0.25},
		{"empty ladder", nil, 0},
	} {
		if got := maxRateAtSLO(tc.ladder); got != tc.want {
			t.Errorf("%s: maxRateAtSLO = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFailedFrac(t *testing.T) {
	for _, tc := range []struct {
		attempted, failed int
		want              float64
	}{
		{0, 0, 0},
		{10, 0, 0},
		{10, 1, 0.1},
		{4, 4, 1},
	} {
		if got := failedFrac(tc.attempted, tc.failed); got != tc.want {
			t.Errorf("failedFrac(%d, %d) = %v, want %v", tc.attempted, tc.failed, got, tc.want)
		}
	}
}

func TestCheckerCountsFailedOperationsAndDigestDrift(t *testing.T) {
	c := newChecker()
	c.op("a", pass("x", true, ""), pass("y", true, ""))
	c.op("b", pass("x", false, "broken"), pass("y", false, "broken"))
	if _, ok := c.digest("report", []int{1, 2}); !ok.ok {
		t.Fatal("first digest must pass")
	}
	_, same := c.digest("report", []int{1, 2})
	_, drift := c.digest("report", []int{2, 1})
	c.op("repeat", same)
	c.op("drift", drift)
	if c.attempted != 4 || c.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2", c.attempted, c.failed)
	}
	if got := failedFrac(c.attempted, c.failed); got != 0.5 {
		t.Fatalf("failed_frac = %v, want 0.5", got)
	}
}
