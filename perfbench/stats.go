package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile range of xs as a share of its median,
// with quartiles computed exactly as Python's statistics.quantiles(xs,
// n=4) computes them (the default "exclusive" method). Fewer than two
// samples, or a zero median, spread 0.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	quartile := func(i int) float64 {
		const n = 4
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return (quartile(3) - quartile(1)) / math.Abs(m)
}

// tailQuantiles are the latency percentiles a report may quote, highest
// first.
var tailQuantiles = []float64{0.99, 0.95, 0.5}

// samplesBeyond is how many of n samples lie strictly above the
// q-quantile by the nearest-rank method.
func samplesBeyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// tailQuantile returns the highest quoted percentile that has at least
// ten of n samples beyond it, and false when even the median has not.
func tailQuantile(n int) (float64, bool) {
	for _, q := range tailQuantiles {
		if samplesBeyond(n, q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// rung is one offered-rate multiple of a load ladder and whether the
// run at that rate met the service objective.
type rung struct {
	Rate float64
	Met  bool
}

// maxRateAtSLO is the highest rate at which the objective holds at that
// rung and at every lower one: a rung that passes above a failing rung
// is luck in the arrival stream, not capacity. Zero when the lowest rung
// already fails.
func maxRateAtSLO(ladder []rung) float64 {
	s := append([]rung(nil), ladder...)
	sort.Slice(s, func(i, j int) bool { return s[i].Rate < s[j].Rate })
	best := 0.0
	for _, r := range s {
		if !r.Met {
			break
		}
		best = r.Rate
	}
	return best
}

// failedFrac is failed operations over attempted ones.
func failedFrac(attempted, failed int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
