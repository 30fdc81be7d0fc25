package serve

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"cellport/internal/sim"
)

// Satellite regression suite for the load-generator clamps: extreme
// rates and burst factors must never overflow sim.Time, run the stream
// backwards, or spin the burst sampler — and the clamps must be inert
// for every ordinary configuration (byte-identical streams).

// checkStream asserts the structural invariants every arrival stream
// must satisfy: exactly n requests, IDs in arrival order, timestamps
// monotone non-decreasing, nothing negative, nothing past the clamp
// ceiling (and so nothing colliding with sim.Never).
func checkStream(t *testing.T, reqs []Request, n int) {
	t.Helper()
	if len(reqs) != n {
		t.Fatalf("stream holds %d requests, want %d", len(reqs), n)
	}
	prev := sim.Time(0)
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("request %d carries ID %d", i, r.ID)
		}
		if r.Arrival < 0 {
			t.Fatalf("request %d arrives at negative time %d", i, r.Arrival)
		}
		if r.Arrival < prev {
			t.Fatalf("stream runs backwards at request %d: %d after %d", i, r.Arrival, prev)
		}
		if r.Arrival > maxArrival {
			t.Fatalf("request %d overflows the arrival ceiling: %d > %d", i, r.Arrival, maxArrival)
		}
		prev = r.Arrival
	}
}

// TestClampGapBoundary pins the overflow boundary itself: a gap drawn
// right at or beyond the seconds-space threshold clamps to maxGap,
// while an ordinary gap converts exactly. This is the regression test
// for the float→int64 overflow FromSeconds would otherwise hit.
func TestClampGapBoundary(t *testing.T) {
	cases := []struct {
		name string
		s    float64
		want sim.Duration
	}{
		{"ordinary gap", 1.5, sim.FromSeconds(1.5)},
		{"zero", 0, 0},
		{"just below the threshold", maxGapSeconds * (1 - 1e-9), sim.FromSeconds(maxGapSeconds * (1 - 1e-9))},
		{"exactly the threshold", maxGapSeconds, maxGap},
		{"far past the threshold", 1e300, maxGap},
		{"would overflow int64", math.MaxFloat64, maxGap},
		{"positive infinity", math.Inf(1), maxGap},
		{"NaN", math.NaN(), maxGap},
		{"negative", -1, maxGap},
	}
	for _, tc := range cases {
		if got := clampGap(tc.s); got != tc.want {
			t.Errorf("%s: clampGap(%g) = %d, want %d", tc.name, tc.s, got, tc.want)
		}
		if got := clampGap(tc.s); got < 0 || got > maxGap {
			t.Errorf("%s: clampGap(%g) = %d escapes [0, maxGap]", tc.name, tc.s, got)
		}
	}
}

// TestArrivalsExtremeRates drives the generator at the rates that used
// to overflow: a rate so tiny every exponential draw lands in the
// clamped tail, and a rate so huge the gaps collapse to zero. Both must
// terminate with a well-formed monotone stream.
func TestArrivalsExtremeRates(t *testing.T) {
	for _, rate := range []float64{1e-300, 5e-324, 1e300} {
		reqs := arrivalSlice(7, 32, rate, 1, 0.25, 0, nil)
		checkStream(t, reqs, 32)
	}
	// The tiny-rate stream saturates at the arrival ceiling rather than
	// wrapping negative: the tail of a fully clamped stream sits at the
	// cap exactly.
	reqs := arrivalSlice(7, 32, 1e-300, 1, 0.25, 0, nil)
	if last := reqs[len(reqs)-1].Arrival; last != maxArrival {
		t.Fatalf("fully clamped stream tail = %d, want the ceiling %d", last, maxArrival)
	}
}

// TestBurstSizeTerminates pins the other half of satellite 2: a burst
// factor huge enough that the geometric success probability underflows
// to zero must still terminate (capped at the stream length), and an
// ordinary burst factor keeps its sizes in [1, n].
func TestBurstSizeTerminates(t *testing.T) {
	rng := splitmix64(3)
	for i := 0; i < 64; i++ {
		if size := burstSize(&rng, math.MaxFloat64, 16); size != 16 {
			t.Fatalf("degenerate burst draw %d returned %d, want the cap 16", i, size)
		}
	}
	for i := 0; i < 64; i++ {
		if size := burstSize(&rng, 3, 16); size < 1 || size > 16 {
			t.Fatalf("ordinary burst draw %d returned %d outside [1, 16]", i, size)
		}
	}
	// An end-to-end huge-burst stream terminates and stays well formed.
	checkStream(t, arrivalSlice(11, 48, 2, math.MaxFloat64, 0.25, 0, nil), 48)
}

// TestArrivalsDeadlineUnderClamp checks deadline arithmetic on a
// clamped arrival never collides with the no-deadline sentinel.
func TestArrivalsDeadlineUnderClamp(t *testing.T) {
	reqs := arrivalSlice(7, 16, 1e-300, 1, 0, 250*sim.Millisecond, nil)
	for i, r := range reqs {
		if r.Deadline == sim.Never {
			t.Fatalf("request %d lost its deadline", i)
		}
		if r.Deadline < r.Arrival {
			t.Fatalf("request %d deadline %d precedes arrival %d", i, r.Deadline, r.Arrival)
		}
	}
}

// TestShapedStreamInvariants: the thinned non-homogeneous stream obeys
// the same structural invariants as the homogeneous one, is a pure
// function of its seed, and an inactive model reproduces the pinned
// homogeneous stream byte for byte.
func TestShapedStreamInvariants(t *testing.T) {
	model := &RateModel{DiurnalAmp: 0.6, FlashCount: 2, FlashFactor: 3}
	a := arrivalSlice(7, 96, 2, 2, 0.25, 0, model)
	checkStream(t, a, 96)
	b := arrivalSlice(7, 96, 2, 2, 0.25, 0, model)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shaped stream is not a pure function of its seed")
	}
	if c := arrivalSlice(8, 96, 2, 2, 0.25, 0, model); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical shaped streams")
	}

	// Inactive models — nil, zeroed, and flashes disabled by factor ≤ 1 —
	// all yield the homogeneous stream TestGoldenArrivals pins.
	for _, m := range []*RateModel{nil, {}, {FlashCount: 3, FlashFactor: 1}} {
		for _, burst := range []float64{1, 4} {
			want := goldenArrivals[fmt.Sprintf("homogeneous/burst%v", burst)]
			if got := arrivalsDigest(t, m, burst); got != want {
				t.Fatalf("inactive model %+v at burst %v: digest %s, want the homogeneous %s", m, burst, got, want)
			}
		}
	}

	// The shaped generator inherits the clamps: extreme rates stay safe.
	checkStream(t, arrivalSlice(7, 32, 1e-300, 1, 0.25, 0, model), 32)
	checkStream(t, arrivalSlice(7, 32, 1e300, math.MaxFloat64, 0.25, 0, model), 32)
}

// TestRateModelResolve pins the model's resolved geometry: flash
// windows land inside the period, sorted, and the instantaneous rate
// never exceeds the thinning envelope.
func TestRateModelResolve(t *testing.T) {
	m := RateModel{DiurnalAmp: 0.6, FlashCount: 4, FlashFactor: 3}
	r := m.resolve(7, 96, 2)
	if r.period <= 0 {
		t.Fatalf("resolved period %d not positive", r.period)
	}
	if len(r.starts) != 4 {
		t.Fatalf("resolved %d flash windows, want 4", len(r.starts))
	}
	for i, s := range r.starts {
		if s < 0 || sim.Duration(s) >= r.period {
			t.Fatalf("flash window %d starts at %d, outside the period %d", i, s, r.period)
		}
		if i > 0 && s < r.starts[i-1] {
			t.Fatalf("flash windows unsorted at %d", i)
		}
	}
	peak := r.peak()
	for i := 0; i < 256; i++ {
		at := sim.Time(float64(r.period) * float64(i) / 256)
		if got := rateAtTime(&r, at); got < 0 || got > peak+1e-9 {
			t.Fatalf("rate(%d) = %g escapes [0, peak=%g]", at, got, peak)
		}
	}
	// Flash factor below 1 disables the windows entirely.
	off := RateModel{FlashCount: 3, FlashFactor: 0.5}.resolve(7, 96, 2)
	if len(off.starts) != 0 || off.FlashFactor != 1 {
		t.Fatalf("sub-unity flash factor left windows armed: %+v", off)
	}
}

// TestSqueezeTableDecidesExactly checks the squeeze table against the
// full rate test. For every segment it takes the first and last phases,
// one femtosecond past either edge, and 256 phases spread across it; at
// each, a draw just below its segment's lower bound must be accepted and
// a draw at the upper bound rejected. The models are TestGoldenArrivals'
// shaped ones over a few seeds, and hand-placed flash windows, one
// straddling segment edges and one ending where the period does, on a
// period 64 divides and on one it does not, at amplitudes 0, 0.6 and 1.
// A period shorter than the table has one segment.
func TestSqueezeTableDecidesExactly(t *testing.T) {
	type model struct {
		name string
		r    resolvedModel
	}
	var models []model
	for _, g := range goldenModels {
		if !g.model.active() {
			continue
		}
		for seed := uint64(0); seed < 4; seed++ {
			models = append(models, model{fmt.Sprintf("%s/seed%d", g.name, seed), g.model.resolve(seed, 5000, 1000)})
		}
	}
	for _, period := range []sim.Duration{64_000_000, 64_000_037} {
		for _, amp := range []float64{0, 0.6, 1} {
			r := RateModel{DiurnalAmp: amp, FlashCount: 2, FlashFactor: 3, Period: period}.resolve(1, 5000, 1000)
			r.starts = []sim.Time{sim.Time(period / 64 * 5 / 2), sim.Time(period - r.flashLen)}
			r.buildSqueeze()
			models = append(models, model{fmt.Sprintf("placed/period%d/amp%v", period, amp), r})
		}
	}
	short := RateModel{DiurnalAmp: 0.6, FlashCount: 2, FlashFactor: 3, Period: 50}.resolve(1, 5000, 1000)
	if short.segs[0].end != 50 {
		t.Fatalf("a 50 fs period's first segment ends at %d, want one segment ending at 50", short.segs[0].end)
	}
	models = append(models, model{"period50fs", short})

	for _, m := range models {
		r := &m.r
		last := slices.IndexFunc(r.segs[:], func(s squeezeSeg) bool { return s.end == r.period })
		if last < 0 {
			t.Fatalf("%s: no segment ends at the period %d", m.name, r.period)
		}
		segs := r.segs[:last+1]
		segOf := func(phase sim.Duration) squeezeSeg {
			for _, s := range segs {
				if phase < s.end {
					return s
				}
			}
			panic("phase past the period")
		}
		peak := r.peak()
		start := sim.Duration(0)
		for j, seg := range segs {
			if seg.end <= start {
				t.Fatalf("%s: segment %d is empty: [%d, %d)", m.name, j, start, seg.end)
			}
			phases := []sim.Duration{start - 1, start, start + 1, seg.end - 1, seg.end}
			for i := sim.Duration(0); i < 256; i++ {
				phases = append(phases, start+(seg.end-start)*i/256)
			}
			for _, phase := range phases {
				if phase < 0 || phase >= r.period {
					continue
				}
				s := segOf(phase)
				q := r.rate(phase, r.flashAt(phase)) / peak
				if below := math.Nextafter(s.lo, math.Inf(-1)); !(below < q) {
					t.Errorf("%s: phase %d: a draw of %v, below the bound %v, is rejected by rate/peak %v", m.name, phase, below, s.lo, q)
				}
				if !(s.hi >= q) {
					t.Errorf("%s: phase %d: a draw of %v, at the bound, is accepted by rate/peak %v", m.name, phase, s.hi, q)
				}
			}
			start = seg.end
		}
	}
}
