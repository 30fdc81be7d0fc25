package serve

import (
	"reflect"
	"testing"

	"cellport/internal/sim"
)

// arrivalSlice draws a whole n-request stream on the calling goroutine:
// the one generator, with no consumer reading behind it.
func arrivalSlice(seed uint64, n int, ratePerSec, burst, tallFrac float64, deadline sim.Duration, model *RateModel) []Request {
	out := make([]Request, n)
	arrivalsShaped(seed, out, ratePerSec, burst, tallFrac, deadline, model, func(int) {})
	return out
}

func TestArrivalsDeterministic(t *testing.T) {
	a := arrivalSlice(42, 200, 100, 3, 0.25, 50*sim.Millisecond, nil)
	b := arrivalSlice(42, 200, 100, 3, 0.25, 50*sim.Millisecond, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different arrival streams")
	}
	c := arrivalSlice(43, 200, 100, 3, 0.25, 50*sim.Millisecond, nil)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical arrival streams")
	}
}

func TestArrivalsShape(t *testing.T) {
	const n = 2000
	const rate = 100.0
	reqs := arrivalSlice(7, n, rate, 1, 0.25, 0, nil)
	last := sim.Time(0)
	tall := 0
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if r.Arrival < last {
			t.Fatalf("arrivals not monotonic at %d", i)
		}
		last = r.Arrival
		if r.Deadline != sim.Never {
			t.Fatalf("request %d has a deadline with deadlines disabled", i)
		}
		if r.Tall {
			tall++
		}
	}
	// Mean inter-arrival 1/rate: the empirical rate of 2000 draws should
	// land well within ±15%.
	empirical := float64(n) / last.Seconds()
	if empirical < rate*0.85 || empirical > rate*1.15 {
		t.Fatalf("empirical rate %.1f rps, want ~%.0f", empirical, rate)
	}
	if frac := float64(tall) / n; frac < 0.18 || frac > 0.32 {
		t.Fatalf("tall fraction %.3f, want ~0.25", frac)
	}
}

func TestArrivalsBurstsShareTimestamps(t *testing.T) {
	reqs := arrivalSlice(7, 500, 100, 4, 0, 0, nil)
	shared := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival == reqs[i-1].Arrival {
			shared++
		}
	}
	// Mean burst size 4 ⇒ roughly 3/4 of consecutive pairs share a burst
	// timestamp; anything clearly above the Poisson case (~0) proves the
	// burst mechanism is live.
	if shared < 200 {
		t.Fatalf("only %d/499 consecutive pairs share a burst timestamp, want bursty stream", shared)
	}
}

func TestArrivalsDeadlinesOffsetArrival(t *testing.T) {
	d := 80 * sim.Millisecond
	for _, r := range arrivalSlice(3, 50, 100, 2, 0.5, d, nil) {
		if r.Deadline != r.Arrival.Add(d) {
			t.Fatalf("request %d deadline %v, want arrival+%v", r.ID, r.Deadline, d)
		}
	}
}

// BenchmarkArrivalsShaped times generating one fleet-shaped stream:
// 80k requests under diurnal amplitude 0.6 with two 3× flash crowds,
// the stream each fleet-ladder rung serves.
func BenchmarkArrivalsShaped(b *testing.B) {
	model := &RateModel{DiurnalAmp: 0.6, FlashCount: 2, FlashFactor: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arrivalSlice(7, 80_000, 1000, 1, 0.25, 2*sim.Millisecond, model)
	}
}
