package serve

import (
	"fmt"
	"math"
	"runtime/debug"

	"cellport/internal/sim"
)

// The load generator produces a seeded, open-loop arrival stream: request
// timestamps are drawn in order from a splitmix64 stream and never react
// to the serving side (arrivals keep coming whether or not the blades
// keep up — the overload regime the admission layer exists for). Run
// draws the stream on a producer goroutine while the event loop consumes
// it (streamArrivals); the draws depend only on the configuration, never
// on how far the loop has got, so the same (seed, rate, burst, tallFrac,
// n) always yields byte-identical streams, which is what makes a whole
// serve run a pure function of its configuration.

// Request is one concept-detection query: classify a single frame of the
// given geometry against the model library.
type Request struct {
	// ID is the arrival-order index (also the corpus image the request
	// conceptually addresses).
	ID int
	// Arrival is the request's virtual arrival timestamp.
	Arrival sim.Time
	// Tall marks the larger frame geometry (double-height); only
	// same-geometry requests can be coalesced into one SPE dispatch.
	Tall bool
	// Deadline is the virtual completion deadline (sim.Never when the
	// stream runs without deadlines).
	Deadline sim.Time
	// Attempts counts how many times the request has lost its blade and
	// been re-routed (0 on first admission). The lifecycle layer sheds a
	// request whose attempts exceed the pool's retry budget.
	Attempts int
}

// splitmix64 is the same tiny, well-mixed PRNG the fault planner uses;
// the stream is fully determined by the seed.
type splitmix64 uint64

func (r *splitmix64) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	return mix64(uint64(*r))
}

// mix64 is the splitmix64 finalizer: the generator's output step.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *splitmix64) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// maxGap bounds one inter-arrival gap and maxArrival bounds an absolute
// arrival timestamp. FromSeconds converts through float64, so a gap
// drawn at an extreme rate (tiny -rate, or a NaN survived from upstream)
// would otherwise overflow the int64 femtosecond representation into an
// implementation-defined — typically negative — value, making the stream
// run backwards and breaking same-instant FIFO order. The absolute cap
// sits well below sim.Never so deadline arithmetic on a clamped arrival
// can never collide with the "no deadline" sentinel, and maxGap is low
// enough that one clamped step can never push a clamped timestamp past
// the int64 range.
const (
	maxGap     = sim.Duration(math.MaxInt64 / 4)
	maxArrival = sim.Time(math.MaxInt64 / 2)
)

// maxGapSeconds is maxGap expressed in seconds, the clamp threshold
// applied before the float→int64 conversion where the overflow happens.
var maxGapSeconds = float64(maxGap) / 1e15

// clampGap turns a gap drawn in seconds into a bounded virtual duration.
// Non-finite and negative draws (possible only from degenerate rates
// that Validate rejects, kept as defense in depth) clamp to the maximum
// gap, pushing the stream deterministically into the far future rather
// than backwards.
func clampGap(s float64) sim.Duration {
	if !(s >= 0) || s >= maxGapSeconds {
		return maxGap
	}
	return sim.FromSeconds(s)
}

// exp returns an exponential draw with the given rate (per virtual
// second), as a bounded virtual duration. Exactly one uniform draw is
// consumed regardless of clamping, so clamped and unclamped streams stay
// aligned.
func (r *splitmix64) exp(rate float64) sim.Duration {
	// Log1p(-u) keeps the tail exact for u near 0 and can never hit
	// log(0) since u < 1.
	return clampGap(-math.Log1p(-r.float()) / rate)
}

// nextArrivalTime advances the stream clock by one bounded gap, capping
// the absolute timestamp so the stream is monotone non-decreasing all
// the way to the clamp ceiling (never overflowing, never reaching the
// Never sentinel).
func nextArrivalTime(t sim.Time, gap sim.Duration) sim.Time {
	t = t.Add(gap)
	if t > maxArrival {
		t = maxArrival
	}
	return t
}

// burstSize draws a geometric burst size with mean burst (count failures
// of a p = 1/burst trial), capped at the stream length so a degenerate
// success probability (burst huge enough that 1/burst underflows to 0)
// terminates instead of spinning.
func burstSize(rng *splitmix64, burst float64, n int) int {
	size := 1
	for size < n && rng.float() >= 1/burst {
		size++
	}
	return size
}

func makeRequest(rng *splitmix64, id int, t sim.Time, tallFrac float64, deadline sim.Duration) Request {
	r := Request{
		ID:       id,
		Arrival:  t,
		Tall:     rng.float() < tallFrac,
		Deadline: sim.Never,
	}
	if deadline > 0 {
		r.Deadline = t.Add(deadline)
	}
	return r
}

// RateModel shapes the offered rate over virtual time: a diurnal
// sinusoid plus seeded flash-crowd windows, realized by thinning a
// homogeneous candidate stream drawn at the peak rate. The shaped stream
// is still a pure function of (seed, model): flash-window placement
// comes from an independent splitmix64 stream derived from the same
// seed, so the model changes nothing outside its windows' influence on
// the thinning draws.
type RateModel struct {
	// DiurnalAmp is the relative amplitude A of the diurnal sinusoid:
	// the instantaneous base rate is base × (1 + A·sin(2πt/Period)),
	// 0 ≤ A ≤ 1. Zero leaves the base rate flat.
	DiurnalAmp float64
	// Period is the diurnal period in virtual time; zero selects the
	// expected span of the unshaped stream (one simulated "day" per
	// run).
	Period sim.Duration
	// FlashCount is how many flash-crowd windows each period carries.
	FlashCount int
	// FlashFactor multiplies the instantaneous rate inside a flash
	// window; values ≤ 1 disable the flashes. Each window lasts
	// flashFrac of the period.
	FlashFactor float64
}

// flashFrac is each flash window's length as a fraction of the period.
const flashFrac = 1.0 / 16

// active reports whether the model shapes the stream at all; an inactive
// model yields the homogeneous stream.
func (m *RateModel) active() bool {
	return m != nil && (m.DiurnalAmp > 0 || (m.FlashCount > 0 && m.FlashFactor > 1))
}

// flashSeedSalt derives the flash-window stream from the main seed; any
// fixed odd constant works, this one is the splitmix64 increment.
const flashSeedSalt = 0x9e3779b97f4a7c15

// resolved fills the model's defaults against the base stream: the
// diurnal period and flash-window geometry in absolute virtual time.
type resolvedModel struct {
	RateModel
	period   sim.Duration
	flashLen sim.Duration
	starts   []sim.Time // flash-window starts within one period, sorted
	// segs is the thinning squeeze table (DESIGN.md §13): segments
	// tiling the period in order, the last one ending at period.
	segs [squeezeSegs]squeezeSeg
}

// squeezeSegs is how many segments the squeeze table splits a diurnal
// period into. On the fleet shape a flash-free segment's band between
// its bounds holds about one candidate in a hundred, and a run of one
// period crosses a segment boundary only 64 times.
const squeezeSegs = 64

// squeezePad widens every segment's bounds, in units of the peak rate.
// The computed rate/peak a candidate is tested against, and the computed
// bounds, each differ from their exact values only by the rounding of
// the phase quotient, math.Sin and a few multiplies: a few parts in 1e15
// of the peak. The pad is five orders of magnitude larger, so a draw
// outside [lo, hi) falls on the same side of the computed quotient as of
// the bound.
const squeezePad = 1e-9

// squeezeSeg is one segment of the squeeze table. It covers the phases
// from the previous segment's end up to end; no phase in it has a
// computed rate/peak below lo or above hi.
type squeezeSeg struct {
	end    sim.Duration
	lo, hi float64
}

func (m RateModel) resolve(seed uint64, n int, ratePerSec float64) resolvedModel {
	r := resolvedModel{RateModel: m}
	if r.FlashFactor < 1 {
		r.FlashFactor = 1
		r.FlashCount = 0
	}
	r.period = m.Period
	if r.period <= 0 {
		r.period = clampGap(float64(n) / ratePerSec)
	}
	if r.period <= 0 {
		r.period = sim.Second
	}
	r.flashLen = sim.Duration(float64(r.period) * flashFrac)
	if r.FlashCount > 0 {
		frng := splitmix64(seed ^ flashSeedSalt)
		r.starts = make([]sim.Time, r.FlashCount)
		for i := range r.starts {
			r.starts[i] = sim.Time(frng.float() * float64(r.period))
		}
		// Sorted for a deterministic, early-exit window scan.
		for i := 1; i < len(r.starts); i++ {
			for j := i; j > 0 && r.starts[j] < r.starts[j-1]; j-- {
				r.starts[j], r.starts[j-1] = r.starts[j-1], r.starts[j]
			}
		}
	}
	r.buildSqueeze()
	return r
}

// buildSqueeze fills the squeeze table. Segment j holds the phases whose
// exact fraction of the period lies in [j/n, (j+1)/n), so its first
// phase is ceil(j·period/n), and over it 1+A·sin ranges between its
// values at the two fractions, or reaches ±1 where a quarter or three
// quarters of the period falls inside. A period shorter than
// squeezeSegs femtoseconds gets one segment, the whole period. The
// flash factor raises the upper bound of every segment a flash window
// touches, and the lower bound only of one a single window covers.
func (r *resolvedModel) buildSqueeze() {
	n := squeezeSegs
	if r.period < squeezeSegs {
		n = 1
	}
	peak := r.peak()
	q, rem := r.period/sim.Duration(n), r.period%sim.Duration(n)
	start := sim.Duration(0)
	for j := 0; j < n; j++ {
		k := sim.Duration(j + 1)
		end := k*q + (k*rem+sim.Duration(n-1))/sim.Duration(n)
		s0 := math.Sin(2 * math.Pi * float64(j) / float64(n))
		s1 := math.Sin(2 * math.Pi * float64(j+1) / float64(n))
		sLo, sHi := min(s0, s1), max(s0, s1)
		if 4*j <= n && n <= 4*(j+1) {
			sHi = 1
		}
		if 4*j <= 3*n && 3*n <= 4*(j+1) {
			sLo = -1
		}
		lo, hi := 1+r.DiurnalAmp*sLo, 1+r.DiurnalAmp*sHi
		touched, covered := false, false
		for _, s := range r.starts {
			ws, we := sim.Duration(s), sim.Duration(s)+r.flashLen
			touched = touched || ws < end && start < we
			covered = covered || ws <= start && end <= we
		}
		if covered {
			lo *= r.FlashFactor
		}
		if touched {
			hi *= r.FlashFactor
		}
		r.segs[j] = squeezeSeg{end: end, lo: max(0, lo)/peak - squeezePad, hi: max(0, hi)/peak + squeezePad}
		start = end
	}
}

// flashAt reports whether phase lies inside a flash window. The starts
// are sorted, so the scan stops at the first start past phase.
func (r *resolvedModel) flashAt(phase sim.Duration) bool {
	for _, s := range r.starts {
		if phase < sim.Duration(s) {
			return false
		}
		if phase < sim.Duration(s)+r.flashLen {
			return true
		}
	}
	return false
}

// rate is the instantaneous offered rate at a phase, as a multiple of
// the base rate; flash is the phase's flashAt result. The rate is
// clamped at zero: an amplitude above 1 (rejected by Validate, but this
// layer must not rely on its callers) would otherwise drive the diurnal
// trough negative, and a negative thinning probability in
// arrivalsShaped silently accepts every candidate — inverting the
// intended load shape instead of failing loudly.
func (r *resolvedModel) rate(phase sim.Duration, flash bool) float64 {
	mult := 1.0
	if r.DiurnalAmp > 0 {
		mult *= 1 + r.DiurnalAmp*math.Sin(2*math.Pi*float64(phase)/float64(r.period))
	}
	if flash {
		mult *= r.FlashFactor
	}
	if mult < 0 {
		mult = 0
	}
	return mult
}

// peak is the model's maximum rate multiple — the thinning envelope.
func (r *resolvedModel) peak() float64 {
	return (1 + r.DiurnalAmp) * r.FlashFactor
}

// arrivalsShaped generates the arrival stream into out: len(out)
// requests at an average of ratePerSec requests per virtual second,
// shaped by model. It calls publish(k) once k requests are written, after
// every arrivalChunk requests and after the last one, so a consumer may
// read out[:k] while the rest is still being drawn. Burstiness
// burst >= 1 groups arrivals into bursts whose size is geometric with
// mean burst (burst = 1 degenerates to a plain Poisson process); the
// burst-event rate is scaled down by the mean burst size so the offered
// load stays ratePerSec. An active model shapes the stream by thinning:
// burst events are drawn at the peak rate and accepted with probability
// rate(t)/peak, so the accepted process has exactly the shaped intensity
// while remaining a pure function of the seed. A nil or inactive model
// draws no thinning variate and uses peak 1: the homogeneous stream.
func arrivalsShaped(seed uint64, out []Request, ratePerSec, burst, tallFrac float64, deadline sim.Duration, model *RateModel, publish func(k int)) {
	n := len(out)
	if burst < 1 {
		burst = 1
	}
	shaped := model.active()
	var m resolvedModel
	peak := 1.0
	if shaped {
		m = model.resolve(seed, n, ratePerSec)
		peak = m.peak()
	}
	// The squeeze (DESIGN.md §13) follows t through the table as it
	// grows: day is the start of t's diurnal period, seg its segment,
	// segEnd the segment's end, and [lo, hi) its band. A draw below lo
	// is accepted and one at or above hi rejected without evaluating
	// the rate. t is monotone, so the modulo runs only when t leaves its
	// period, and the walk along the table only when it leaves its
	// segment.
	var (
		day, segEnd sim.Time
		seg         int
		lo, hi      float64
	)
	rng := splitmix64(seed)
	t := sim.Time(0)
	for k := 0; k < n; {
		t = nextArrivalTime(t, rng.exp(ratePerSec*peak/burst))
		// Thin: one uniform draw per candidate burst event, consumed
		// whether or not the event survives, keeping the stream aligned.
		if shaped {
			u := rng.float()
			if t >= segEnd {
				if t.Sub(day) >= m.period {
					day, seg = t-sim.Time(sim.Duration(t)%m.period), 0
				}
				for t.Sub(day) >= m.segs[seg].end {
					seg++
				}
				segEnd = day.Add(m.segs[seg].end)
				lo, hi = m.segs[seg].lo, m.segs[seg].hi
			}
			if u >= lo {
				if u >= hi {
					continue
				}
				// Flash windows repeat each period, so a multi-day run
				// sees its flash crowds daily at the same phase.
				phase := t.Sub(day)
				if u >= m.rate(phase, m.flashAt(phase))/peak {
					continue
				}
			}
		}
		for i, size := 0, burstSize(&rng, burst, n); i < size && k < n; i++ {
			out[k] = makeRequest(&rng, k, t, tallFrac, deadline)
			if k++; k%arrivalChunk == 0 || k == n {
				publish(k)
			}
		}
	}
}

// arrivalChunk is how many requests the producer draws between two
// publications: large enough that the consumer rarely waits on the
// channel, small enough that the loop starts after a sliver of the
// stream.
const arrivalChunk = 512

// stream is the arrival stream as the event loop consumes it. A producer
// goroutine fills reqs in arrival order and sends each high-water mark on
// ready; the loop reads reqs[:avail] and waits only when its cursor
// reaches avail.
type stream struct {
	reqs  []Request
	ready chan int // buffered for every mark, so the producer never blocks
	avail int
	// fault is the producer's panic, with its stack; written before
	// ready closes.
	fault string
}

// streamArrivals starts gen on a producer goroutine over a fresh
// n-request slice and returns the stream the event loop consumes. The
// producer sends at most one mark per arrivalChunk requests into a
// channel with room for all of them, so it runs to the end without ever
// waiting, whether or not anyone consumes: it cannot leak.
func streamArrivals(n int, gen func(out []Request, publish func(k int))) *stream {
	s := &stream{
		reqs:  make([]Request, n),
		ready: make(chan int, (n+arrivalChunk-1)/arrivalChunk),
	}
	go func() {
		defer close(s.ready)
		defer func() {
			if v := recover(); v != nil {
				s.fault = fmt.Sprintf("%v\n%s", v, debug.Stack())
			}
		}()
		gen(s.reqs, func(k int) { s.ready <- k })
	}()
	return s
}

// await blocks until the producer publishes its next mark. A producer
// that stopped short panicked: its panic is raised again here, on the
// consumer's goroutine, where the caller's recover (parallel.RunIndexed
// in the experiment sweeps) turns it into an error.
func (s *stream) await() {
	k, ok := <-s.ready
	if !ok {
		panic(fmt.Sprintf("serve: arrival producer stopped at %d of %d requests: %s", s.avail, len(s.reqs), s.fault))
	}
	s.avail = k
}
