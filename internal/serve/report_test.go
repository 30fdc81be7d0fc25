package serve

import (
	"reflect"
	"strings"
	"testing"

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
