package serve

import (
	"cmp"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cellport/internal/sim"
)

// foldView is the part of a Report the outcome fold derives.
type foldView struct {
	Served, Late, Degraded                                             int
	ShedRejected, ShedExpired, ShedRerouted, ShedExhausted, ShedGlobal int
	P50, P95, P99, Makespan                                            sim.Duration
	BladeRequests, BladeShedRerouted, BladeShedExhausted               []int
	PoolServed                                                         []int
}

func viewOf(r *Report) foldView {
	v := foldView{
		Served: r.Served, Late: r.Late, Degraded: r.Degraded,
		ShedRejected: r.ShedRejected, ShedExpired: r.ShedExpired, ShedRerouted: r.ShedRerouted,
		ShedExhausted: r.ShedExhausted, ShedGlobal: r.ShedGlobal,
		P50: r.LatencyP50, P95: r.LatencyP95, P99: r.LatencyP99, Makespan: r.Makespan,
	}
	for _, bs := range r.PerBlade {
		v.BladeRequests = append(v.BladeRequests, bs.Requests)
		v.BladeShedRerouted = append(v.BladeShedRerouted, bs.ShedRerouted)
		v.BladeShedExhausted = append(v.BladeShedExhausted, bs.ShedExhausted)
	}
	if r.Fleet != nil {
		for _, ps := range r.Fleet.PerPool {
			v.PoolServed = append(v.PoolServed, ps.Served)
		}
	}
	return v
}

// foldTest is one hand-built ledger: the arrival stream, the outcome
// records a run would have left, and what the report must fold from
// them. Every case runs on two blades per pool.
type foldTest struct {
	name     string
	pools    int // 0: single pool
	reqs     []Request
	outcomes []outcome
	want     foldView
	wantErr  string
}

func runFoldTests(t *testing.T, tests []foldTest) {
	t.Helper()
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickConfig().withDefaults()
			cfg.Blades = 2
			cfg.Pools = tc.pools
			cfg.Requests = len(tc.reqs)
			p := newPool(cfg, mustCal(t), 0)
			copy(p.outcomes, tc.outcomes)
			rep, err := p.report(tc.reqs, 1)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := viewOf(rep); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("fold mismatch:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// req arrives at arrival with an absolute deadline (sim.Never for none).
func req(id int, arrival, deadline sim.Time) Request {
	return Request{ID: id, Arrival: arrival, Deadline: deadline}
}

func servedAt(blade int, done sim.Time) outcome {
	return outcome{state: outServed, blade: int32(blade), done: done, finishes: 1}
}

func shedBy(st terminal, blade int, at sim.Time) outcome {
	return outcome{state: st, blade: int32(blade), done: at, finishes: 1}
}

func TestReportFold(t *testing.T) {
	// Twenty requests arriving together, served in reverse latency order
	// (20, 19, ..., 1): nearest rank puts p50 at 10, p95 at 19, p99 at 20.
	var spreadReqs []Request
	var spreadOuts []outcome
	for i := 0; i < 20; i++ {
		spreadReqs = append(spreadReqs, req(i, 0, sim.Never))
		spreadOuts = append(spreadOuts, servedAt(i%2, sim.Time(20-i)))
	}

	runFoldTests(t, []foldTest{
		{
			name:     "served on time",
			reqs:     []Request{req(0, 10, 100), req(1, 20, 100)},
			outcomes: []outcome{servedAt(0, 40), servedAt(1, 100)},
			want: foldView{
				Served: 2, P50: 30, P95: 80, P99: 80, Makespan: 100,
				BladeRequests: []int{1, 1}, BladeShedRerouted: []int{0, 0}, BladeShedExhausted: []int{0, 0},
			},
		},
		{
			name:     "late past the deadline, never without one",
			reqs:     []Request{req(0, 0, 50), req(1, 0, sim.Never)},
			outcomes: []outcome{servedAt(1, 60), servedAt(1, 500)},
			want: foldView{
				Served: 2, Late: 1, P50: 60, P95: 500, P99: 500, Makespan: 500,
				BladeRequests: []int{0, 2}, BladeShedRerouted: []int{0, 0}, BladeShedExhausted: []int{0, 0},
			},
		},
		{
			name: "degraded",
			reqs: []Request{req(0, 0, sim.Never), req(1, 0, sim.Never)},
			outcomes: []outcome{
				{state: outServed, blade: 0, done: 7, degraded: true, finishes: 1},
				servedAt(0, 9),
			},
			want: foldView{
				Served: 2, Degraded: 1, P50: 7, P95: 9, P99: 9, Makespan: 9,
				BladeRequests: []int{2, 0}, BladeShedRerouted: []int{0, 0}, BladeShedExhausted: []int{0, 0},
			},
		},
		{
			name: "each shed reason, makespan over served only",
			reqs: []Request{
				req(0, 0, 50), req(1, 0, 50), req(2, 0, 50), req(3, 0, 50), req(4, 0, 50), req(5, 0, 50),
			},
			outcomes: []outcome{
				servedAt(0, 30),
				shedBy(outShedRejected, 0, 1),
				shedBy(outShedRejected, -1, 2),
				shedBy(outShedExpired, 1, 40),
				shedBy(outShedRerouted, 1, 45),
				shedBy(outShedExhausted, 0, 90),
			},
			want: foldView{
				Served: 1, ShedRejected: 2, ShedExpired: 1, ShedRerouted: 1, ShedExhausted: 1,
				P50: 30, P95: 30, P99: 30, Makespan: 30,
				BladeRequests: []int{1, 0}, BladeShedRerouted: []int{0, 1}, BladeShedExhausted: []int{1, 0},
			},
		},
		{
			name:     "percentiles over an unsorted sample",
			reqs:     spreadReqs,
			outcomes: spreadOuts,
			want: foldView{
				Served: 20, P50: 10, P95: 19, P99: 20, Makespan: 20,
				BladeRequests: []int{10, 10}, BladeShedRerouted: []int{0, 0}, BladeShedExhausted: []int{0, 0},
			},
		},
		{
			name:  "fleet pool attribution",
			pools: 2,
			reqs:  []Request{req(0, 0, sim.Never), req(1, 0, sim.Never), req(2, 0, sim.Never), req(3, 0, sim.Never)},
			outcomes: []outcome{
				servedAt(0, 5), servedAt(3, 6), servedAt(1, 7), shedBy(outShedGlobal, -1, 0),
			},
			want: foldView{
				Served: 3, ShedGlobal: 1, P50: 6, P95: 7, P99: 7, Makespan: 7,
				BladeRequests: []int{1, 1, 0, 1}, BladeShedRerouted: []int{0, 0, 0, 0}, BladeShedExhausted: []int{0, 0, 0, 0},
				PoolServed: []int{2, 1},
			},
		},
		{
			name:     "request with no terminal outcome",
			reqs:     []Request{req(0, 0, sim.Never), req(1, 0, sim.Never), req(2, 0, sim.Never)},
			outcomes: []outcome{servedAt(0, 5), {}, servedAt(1, 5)},
			wantErr:  "request 1 has 0 terminal outcomes",
		},
		{
			name: "request with two terminal outcomes",
			reqs: []Request{req(0, 0, sim.Never), req(1, 0, sim.Never), req(2, 0, sim.Never)},
			outcomes: []outcome{
				servedAt(0, 5), servedAt(1, 5),
				{state: outShedExpired, blade: 1, done: 5, finishes: 2},
			},
			wantErr: "request 2 has 2 terminal outcomes",
		},
	})
}

// nearestRank is the q-quantile of an ascending sample by the
// nearest-rank method, 0 for an empty one: the sort-based code
// latencyQuantiles replaced, kept as its oracle.
func nearestRank(sorted []sim.Duration, q float64) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
}

// TestLatencyQuantilesMatchSort checks selection against sorting on
// seeded samples of every size from empty up, in the shapes that break
// naive quickselects: all equal, sorted, reversed, organ pipe, a few
// values repeated, and an adversary's input built to make selectNth's
// partitioning quadratic. A selection of 10k or more values that takes
// more than five times as long as sorting a random sample of that
// size fails the test.
func TestLatencyQuantilesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 0x5e1ec7))
	type shape struct {
		name string
		at   func(i, n int) sim.Duration
	}
	shapes := []shape{
		{"random", func(int, int) sim.Duration { return sim.Duration(rng.Int64N(1e12)) }},
		{"all-equal", func(int, int) sim.Duration { return 7 }},
		{"sorted", func(i, _ int) sim.Duration { return sim.Duration(i) }},
		{"reversed", func(i, n int) sim.Duration { return sim.Duration(n - i) }},
		{"organ-pipe", func(i, n int) sim.Duration { return sim.Duration(min(i, n-1-i)) }},
		{"heavy-duplicate", func(int, int) sim.Duration { return sim.Duration(rng.IntN(4)) }},
	}
	const killerLen = 10_000
	killer := selectKiller(killerLen, int(math.Ceil(0.99*killerLen))-1)
	cases := []struct {
		n      int
		shapes []shape
	}{
		{0, shapes}, {1, shapes}, {2, shapes}, {3, shapes}, {100, shapes},
		{killerLen, []shape{{"adversary", func(i, _ int) sim.Duration { return killer[i] }}}},
		{100_000, shapes},
	}
	build := func(sh shape, n int) []sim.Duration {
		a := make([]sim.Duration, n)
		for i := range a {
			a[i] = sh.at(i, n)
		}
		return a
	}
	for _, c := range cases {
		var ref time.Duration
		if c.n >= killerLen {
			ref = fastest(func() []sim.Duration { return build(shapes[0], c.n) }, func(a []sim.Duration) { slices.Sort(a) })
		}
		for _, sh := range c.shapes {
			a := build(sh, c.n)
			sorted := slices.Clone(a)
			slices.Sort(sorted)
			want := [3]sim.Duration{nearestRank(sorted, 0.50), nearestRank(sorted, 0.95), nearestRank(sorted, 0.99)}
			var got [3]sim.Duration
			var out []sim.Duration
			took := fastest(func() []sim.Duration { return slices.Clone(a) }, func(b []sim.Duration) {
				got[0], got[1], got[2] = latencyQuantiles(b)
				out = b
			})
			if got != want {
				t.Errorf("%s n=%d: p50/p95/p99 = %v, sort gives %v", sh.name, c.n, got, want)
			}
			if slices.Sort(out); !slices.Equal(out, sorted) {
				t.Errorf("%s n=%d: selection lost or changed values", sh.name, c.n)
			}
			if ref > 0 && took > 5*ref {
				t.Errorf("%s n=%d: selection took %v, sorting a random sample %v", sh.name, c.n, took, ref)
			}
		}
	}
}

// fastest returns the least of three timings of f, each on a fresh
// input from gen.
func fastest(gen func() []sim.Duration, f func([]sim.Duration)) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		a := gen()
		start := time.Now()
		f(a)
		best = min(best, time.Since(start))
	}
	return best
}

// selectKiller builds McIlroy's adversarial input ("A Killer Adversary
// for Quicksort", 1999) against selectNth's pivot choice and partition
// for rank k of n values. It replays them over positions whose values
// start undecided, above every decided value; comparing two undecided
// values decides one of them as the next smallest value, preferring the
// one last compared with a decided value, the likely pivot. Each pivot
// so lands at the bottom of its range, and selectNth without its depth
// limit takes about n²/2 comparisons on the result. The replay must
// change with selectNth's pivot rule or partition, or the input stops
// being adversarial.
func selectKiller(n, k int) []sim.Duration {
	val := make([]sim.Duration, n)
	undecided := sim.Duration(n)
	for i := range val {
		val[i] = undecided
	}
	next, candidate := sim.Duration(0), 0
	compare := func(x, y int) int {
		if val[x] == undecided && val[y] == undecided {
			freeze := y
			if x == candidate {
				freeze = x
			}
			val[freeze], next = next, next+1
		}
		if val[x] == undecided {
			candidate = x
		} else if val[y] == undecided {
			candidate = y
		}
		return cmp.Compare(val[x], val[y])
	}
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	for len(a) >= selectSortBelow {
		x, y, z := a[0], a[len(a)/2], a[len(a)-1]
		if compare(y, x) < 0 {
			x, y = y, x
		}
		if compare(z, y) < 0 {
			y = z
		}
		pivot := x
		if compare(x, y) < 0 {
			pivot = y
		}
		i, j := 0, len(a)-1
		for i <= j {
			for compare(a[i], pivot) < 0 {
				i++
			}
			for compare(a[j], pivot) > 0 {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			a = a[:j+1]
		case k >= i:
			a, k = a[i:], k-i
		default:
			a = nil
		}
	}
	for i, v := range val {
		if v == undecided {
			val[i], next = next, next+1
		}
	}
	return val
}

// BenchmarkServeReport times the report alone, the serial tail of a
// fleet-ladder-shaped Run: it plays BenchmarkRunFleetShaped's 80k-request
// ledger once, then folds it b.N times.
func BenchmarkServeReport(b *testing.B) {
	cfg := fleetShapedConfig(b).withDefaults()
	offered := cfg.Rate * cfg.Cal.perBlade * float64(cfg.bladeCount())
	cfg.Deadline = 40 * sim.Millisecond
	p := newPool(cfg, cfg.Cal, cfg.Deadline)
	if err := p.armFleet(cfg.Faults); err != nil {
		b.Fatal(err)
	}
	p.armAutoscale(clampGap(float64(cfg.Requests) / offered))
	s := streamArrivals(cfg.Requests, func(out []Request, publish func(int)) {
		arrivalsShaped(cfg.Seed, out, offered, cfg.Burst, cfg.TallFrac, cfg.Deadline, cfg.Load, publish)
	})
	p.run(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.report(s.reqs, offered); err != nil {
			b.Fatal(err)
		}
	}
}
