package serve

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"cellport/internal/metrics"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// BladeStats is one blade's share of the run: Requests, ShedRerouted and
// ShedExhausted fold from its outcome records, the rest are its event
// counters, and Metrics renders them all under their JSON names. Trace
// and Metrics are set only under Config.Instrument and excluded from
// JSON, so serialized reports are byte-identical either way.
type BladeStats struct {
	Blade      int          `json:"blade"`
	Health     string       `json:"health"`
	Dispatches int          `json:"dispatches"`
	Requests   int          `json:"requests"`
	Busy       sim.Duration `json:"busy_fs"`
	Warmup     sim.Duration `json:"warmup_fs"`

	// Lifecycle outcomes (DESIGN.md §12). Sheds are attributed to the
	// blade that lost the request.
	Crashes       int `json:"crashes"`
	Restarts      int `json:"restarts"`
	Stalls        int `json:"stalls"`
	Rerouted      int `json:"rerouted"`
	ShedRerouted  int `json:"shed_rerouted"`
	ShedExhausted int `json:"shed_exhausted"`

	Trace   *trace.Recorder   `json:"-"`
	Metrics *metrics.Snapshot `json:"-"`
}

// Report is the outcome of one serve run: a pure function of (Config,
// seed). All durations are virtual femtoseconds; throughputs are
// requests per virtual second.
type Report struct {
	Policy   string `json:"policy"`
	Blades   int    `json:"blades"`
	Requests int    `json:"requests"`

	PerBladeCapacityRPS float64      `json:"per_blade_capacity_rps"`
	OfferedRPS          float64      `json:"offered_rps"`
	AchievedRPS         float64      `json:"achieved_rps"`
	RateMultiple        float64      `json:"rate_multiple"`
	Deadline            sim.Duration `json:"deadline_fs"`

	Served       int `json:"served"`
	Late         int `json:"late"`
	Degraded     int `json:"degraded"`
	ShedRejected int `json:"shed_rejected"`
	ShedExpired  int `json:"shed_expired"`
	// Lifecycle shed reasons: a re-routed request whose backoff overshot
	// its deadline, and one that exhausted its retry budget. ShedGlobal
	// is the fleet router's global backpressure: no active pool had any
	// admittable blade with queue room (always 0 outside fleet mode).
	// The six-term ledger conserves exactly:
	// Served + ShedRejected + ShedExpired + ShedRerouted + ShedExhausted
	// + ShedGlobal == Requests.
	ShedRerouted  int `json:"shed_rerouted"`
	ShedExhausted int `json:"shed_exhausted"`
	ShedGlobal    int `json:"shed_global"`

	// Fleet lifecycle outcomes: re-route events and the lifecycle
	// transitions that actually fired (armed-but-unfired plan entries
	// count nothing).
	Rerouted      int `json:"rerouted"`
	BladeCrashes  int `json:"blade_crashes"`
	BladeRestarts int `json:"blade_restarts"`
	BladeStalls   int `json:"blade_stalls"`

	Batches             int            `json:"batches"`
	MeanBatch           float64        `json:"mean_batch"`
	SchemeBatches       map[string]int `json:"scheme_batches"`
	PolicyFallbacks     int            `json:"policy_fallbacks"`
	EstimatorConclusive bool           `json:"estimator_conclusive"`

	Makespan   sim.Duration `json:"makespan_fs"`
	LatencyP50 sim.Duration `json:"latency_p50_fs"`
	LatencyP95 sim.Duration `json:"latency_p95_fs"`
	LatencyP99 sim.Duration `json:"latency_p99_fs"`

	PerBlade []BladeStats `json:"per_blade"`

	// Fleet is the routing/autoscaling layer's outcome, present only in
	// fleet mode (Config.Pools > 0).
	Fleet *FleetStats `json:"fleet,omitempty"`

	// Deprecated: no effect; kept only because perfbench still reads it. Removed after ROADMAP 3a.
	Epochs uint64 `json:"-"`
	// Deprecated: no effect; kept only because perfbench still reads it. Removed after ROADMAP 3a.
	Barriers uint64 `json:"-"`
	// Deprecated: no effect; kept only because perfbench still reads it. Removed after ROADMAP 3a.
	WindowAdmits int `json:"-"`

	// Coordinator is the coordinator-lane trace: shed instants for
	// requests no blade held and autoscale actions. Only with
	// Config.Instrument, excluded from JSON.
	Coordinator *trace.Recorder `json:"-"`
}

// PoolStats is one fleet pool's share of the run.
type PoolStats struct {
	Pool   int  `json:"pool"`
	Blades int  `json:"blades"`
	Active bool `json:"active"`
	Routed int  `json:"routed"`
	Served int  `json:"served"`
}

// FleetStats is the fleet router and autoscaler outcome (fleet mode
// only). ActiveMin is the fewest simultaneously active pools the
// autoscaler reached — the off-peak drain depth.
type FleetStats struct {
	Pools           int         `json:"pools"`
	ActiveFinal     int         `json:"active_final"`
	ActiveMin       int         `json:"active_min"`
	ScaleUps        int         `json:"scale_ups"`
	ScaleDowns      int         `json:"scale_downs"`
	RouterOverrides int         `json:"router_overrides"`
	PerPool         []PoolStats `json:"per_pool"`
}

// terminal is the way a request left the run.
type terminal uint8

const (
	outServed        terminal = iota
	outShedRejected           // every candidate queue full, or no admittable blade
	outShedExpired            // could no longer meet its deadline at dispatch
	outShedRerouted           // evicted, backoff overshot the deadline
	outShedExhausted          // evicted, retry budget exhausted
	outShedGlobal             // fleet backpressure: no active pool had room
)

// shedLabels name the sheds in trace instants.
var shedLabels = [...]string{
	outShedRejected:  "shed-rejected",
	outShedExpired:   "shed-expired",
	outShedRerouted:  "shed-rerouted",
	outShedExhausted: "shed-exhausted",
	outShedGlobal:    "shed-global",
}

// outcome is one request's terminal record, indexed by Request.ID.
type outcome struct {
	done     sim.Time // virtual instant the request left the run
	blade    int32    // blade that served or lost it; -1 when none held it
	state    terminal
	degraded bool  // served by a dispatch running degraded
	finishes uint8 // terminal writes: 1 after a correct run, 0 for a lost request
}

// finish writes r's terminal outcome at p.now: the one place a request
// leaves the run. b is the blade that served or lost r, nil when no
// blade held it. A shed is marked by an instant on b's lane, else on
// the coordinator lane, formatted only when a recorder is attached.
func (p *pool) finish(r Request, st terminal, b *blade) {
	o := &p.outcomes[r.ID]
	o.finishes++
	o.state, o.done, o.blade = st, p.now, -1
	if b != nil {
		o.blade = int32(b.id)
		o.degraded = st == outServed && b.deg
	}
	switch {
	case st == outServed:
	case b != nil:
		if b.rec != nil {
			b.rec.Instant(b.lane, p.now, fmt.Sprintf("%s req %d", shedLabels[st], r.ID))
		}
	case p.ctr != nil:
		why := "no admittable blade"
		if st == outShedGlobal {
			why = "fleet backpressure"
		}
		p.ctr.Instant(coordLane, p.now, fmt.Sprintf("%s req %d (%s)", shedLabels[st], r.ID, why))
	}
}

// latencyQuantiles returns the nearest-rank p50, p95 and p99 of a, zeros
// for an empty sample, reordering a in place. It selects instead of
// sorting: p99 over the whole sample, then p95 among the values at or
// below it, then p50 among those at or below p95.
func latencyQuantiles(a []sim.Duration) (p50, p95, p99 sim.Duration) {
	if len(a) == 0 {
		return 0, 0, 0
	}
	rank := func(q float64) int { return int(math.Ceil(q*float64(len(a)))) - 1 }
	// Each selection reorders the prefix that holds the previous one's
	// rank, so each value is read before the next selection.
	k99, k95, k50 := rank(0.99), rank(0.95), rank(0.50)
	selectNth(a, k99)
	p99 = a[k99]
	selectNth(a[:k99+1], k95)
	p95 = a[k95]
	selectNth(a[:k95+1], k50)
	return a[k50], p95, p99
}

// selectSortBelow is the range length under which selectNth sorts
// instead of partitioning.
const selectSortBelow = 16

// selectNth reorders a so that a[k] holds the value a sorted copy has
// there, with no greater value before it and no smaller one after. It
// partitions Hoare's way around a median-of-three pivot, so runs of
// equal values split down the middle, and sorts a range that is short
// or that is still wide after 2·log2(len(a)) partitions, so no input
// makes it quadratic.
func selectNth(a []sim.Duration, k int) {
	for depth := 2 * bits.Len(uint(len(a))); len(a) >= selectSortBelow && depth > 0; depth-- {
		x, y, z := a[0], a[len(a)/2], a[len(a)-1]
		pivot := max(min(x, y), min(max(x, y), z))
		// The pivot is in a, so both scans stop inside it. After the
		// loop a[:j+1] <= pivot <= a[i:], and a[j+1:i] == pivot.
		i, j := 0, len(a)-1
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
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
			return
		}
	}
	slices.Sort(a)
}

// report sums the blades' event counters and folds the outcome records
// with the arrival stream (reqs, indexed by Request.ID) into the ledger,
// lateness, makespan, percentiles and per-blade and per-pool shares:
// counts, maxes and order-insensitive percentiles. A request without
// exactly one terminal outcome is an error, and so is a blade left with
// a queue or a non-zero backlog.
func (p *pool) report(reqs []Request, offered float64) (*Report, error) {
	rateMultiple := p.cfg.Rate
	if p.cfg.OfferedRPS > 0 && p.cal.perBlade > 0 {
		// The pinned absolute rate defines the multiple, not the config
		// knob it overrode.
		rateMultiple = offered / (p.cal.perBlade * float64(len(p.blades)))
	}
	r := &Report{
		Policy:              p.cfg.Policy.String(),
		Blades:              len(p.blades),
		Requests:            p.cfg.Requests,
		PerBladeCapacityRPS: p.cal.perBlade,
		OfferedRPS:          offered,
		RateMultiple:        rateMultiple,
		Deadline:            p.deadline,
		PolicyFallbacks:     p.placeFallbacks,
		EstimatorConclusive: p.conclusive,
		PerBlade:            make([]BladeStats, len(p.blades)),
	}
	// Only schemes that actually dispatched appear, matching the
	// increment-on-use map the loop historically built.
	r.SchemeBatches = map[string]int{}
	var batchRequests int
	for i, b := range p.blades {
		if len(b.queue) > 0 || b.backlog != 0 {
			return nil, fmt.Errorf("serve: blade %d ends the run with %d queued requests and backlog %v, want none",
				b.id, len(b.queue), b.backlog)
		}
		r.PerBlade[i] = BladeStats{
			Blade:      b.id,
			Health:     b.health.String(),
			Dispatches: b.dispatches,
			Busy:       b.busyTime,
			Warmup:     b.warmupTime,
			Crashes:    b.crashes,
			Restarts:   b.restarts,
			Stalls:     b.stalls,
			Rerouted:   b.rerouted,
			Trace:      b.rec,
		}
		r.Rerouted += b.rerouted
		r.BladeCrashes += b.crashes
		r.BladeRestarts += b.restarts
		r.BladeStalls += b.stalls
		r.Batches += b.dispatches
		batchRequests += b.batchRequests
		r.PolicyFallbacks += b.schemeFallbacks
		for s, n := range b.schemeBatches {
			if n > 0 {
				r.SchemeBatches[Scheme(s).String()] += n
			}
		}
	}
	if f := p.fleet; f != nil {
		r.Fleet = &FleetStats{
			Pools:           len(f.pools),
			ActiveFinal:     f.activeCount(),
			ActiveMin:       f.activeMin,
			ScaleUps:        f.scaleUps,
			ScaleDowns:      f.scaleDowns,
			RouterOverrides: f.overrides,
		}
		for _, pl := range f.pools {
			r.Fleet.PerPool = append(r.Fleet.PerPool,
				PoolStats{Pool: pl.id, Blades: len(pl.blades), Active: pl.active, Routed: pl.routed})
		}
	}

	latencies := make([]sim.Duration, 0, len(p.outcomes))
	for id, o := range p.outcomes {
		if o.finishes != 1 {
			return nil, fmt.Errorf("serve: request %d has %d terminal outcomes, want exactly one", id, o.finishes)
		}
		switch o.state {
		case outServed:
			r.Served++
			r.PerBlade[o.blade].Requests++
			latencies = append(latencies, o.done.Sub(reqs[id].Arrival))
			if d := reqs[id].Deadline; d != sim.Never && o.done > d {
				r.Late++
			}
			if o.degraded {
				r.Degraded++
			}
			r.Makespan = max(r.Makespan, o.done.Sub(0))
		case outShedRejected:
			r.ShedRejected++
		case outShedExpired:
			r.ShedExpired++
		case outShedRerouted:
			r.ShedRerouted++
			r.PerBlade[o.blade].ShedRerouted++
		case outShedExhausted:
			r.ShedExhausted++
			r.PerBlade[o.blade].ShedExhausted++
		case outShedGlobal:
			r.ShedGlobal++
		}
	}
	if r.Fleet != nil {
		for i, bs := range r.PerBlade {
			r.Fleet.PerPool[i/p.cfg.Blades].Served += bs.Requests
		}
	}
	r.LatencyP50, r.LatencyP95, r.LatencyP99 = latencyQuantiles(latencies)
	if r.Served > 0 && r.Makespan > 0 {
		r.AchievedRPS = float64(r.Served) / r.Makespan.Seconds()
	}
	if r.Batches > 0 {
		r.MeanBatch = float64(batchRequests) / float64(r.Batches)
	}
	if p.cfg.Instrument {
		r.Coordinator = p.ctr
		for i := range r.PerBlade {
			bs := &r.PerBlade[i]
			reg, lane := metrics.NewRegistry(), p.blades[i].lane
			reg.Counter(lane, "dispatches", int64(bs.Dispatches))
			reg.Counter(lane, "requests", int64(bs.Requests))
			reg.Counter(lane, "busy_fs", int64(bs.Busy))
			reg.Counter(lane, "warmup_fs", int64(bs.Warmup))
			reg.Counter(lane, "crashes", int64(bs.Crashes))
			reg.Counter(lane, "restarts", int64(bs.Restarts))
			reg.Counter(lane, "stalls", int64(bs.Stalls))
			reg.Counter(lane, "rerouted", int64(bs.Rerouted))
			reg.Counter(lane, "shed_rerouted", int64(bs.ShedRerouted))
			reg.Counter(lane, "shed_exhausted", int64(bs.ShedExhausted))
			bs.Metrics = reg.Snapshot()
		}
	}
	return r, nil
}
