package serve

import (
	"fmt"
	"sort"

	"cellport/internal/marvel"
	"cellport/internal/parallel"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// blade is one serving Cell blade: a bounded admission queue, the
// in-flight dispatch (if any), and the blade-local slice of the run's
// accounting. The blade's machine itself is not held here — dispatch
// timing comes from the calibrated service table, which was measured on
// a machine identical to the one this blade models (FullFidelity re-runs
// that machine once per distinct dispatched key to prove it).
//
// All mutable state below the wheel field is owned by the blade: in a
// sharded run it is touched only by events on this blade's wheel, or by
// the coordinator while every wheel is quiescent at an epoch barrier.
// That ownership is what lets the wheels run concurrently without locks,
// and the blade-index merge in report() is what keeps the result
// byte-identical to the sequential loop.
type blade struct {
	id    int
	lane  string
	wheel *sim.Engine // this blade's event wheel (nil in the sequential loop)

	queue []Request
	spare []Request // recycled batch buffer (capacity MaxBatch, reused across dispatches)
	busy  bool
	warm  bool
	start sim.Time // current dispatch start (batch work, after any warmup)
	done  sim.Time // current dispatch completion
	cur   []Request
	deg   bool // current dispatch runs degraded (supervised recovery)

	// Lifecycle state (DESIGN.md §12). health gates admission; gen
	// invalidates completion events scheduled for dispatches that a kill
	// or stall subsequently rewrote (the stale closure finds a newer
	// generation and returns untouched); stallRestore remembers the state
	// a transient stall must restore.
	health       health
	gen          uint64
	stallRestore health
	// restartPending pairs a fault drain with its restart fire so the
	// fire can't claim an unrelated drain; parkPending marks an
	// autoscale drain, completed by maybePark once the blade is idle
	// and empty.
	restartPending bool
	parkPending    bool

	dispatches int
	requests   int
	busyTime   sim.Duration
	warmupTime sim.Duration

	// Blade-local run accounting, merged in blade-index order by report().
	served          int
	late            int
	degraded        int
	shedExpired     int
	shedRerouted    int // evicted, backoff overshot the deadline
	shedExhausted   int // evicted, retry budget exhausted
	rerouted        int // evictions sent back through admission
	crashes         int
	restarts        int
	stalls          int
	batches         int
	batchRequests   int
	schemeFallbacks int
	schemeBatches   [numSchemes]int
	latencies       []sim.Duration
	lastDone        sim.Time

	// keys are the distinct service keys this blade dispatched, in
	// first-dispatch order (FullFidelity only): the blade's share of the
	// run's verification set (verifyDispatched).
	keys []svcKey

	tr  trace.Tracer
	rec *trace.Recorder
}

// pool is the deterministic serving event loop: a virtual clock advanced
// strictly by arrival and completion events. Completions at a timestamp
// are processed before arrivals at the same timestamp; simultaneous
// completions resolve by blade index (trivially in the sequential loop,
// and by construction in the sharded run, where same-timestamp
// completions on different wheels touch only disjoint blade state).
//
// Admission state (rr, shedRejected, placement fallbacks, the placeOrder
// scratch buffers) belongs to the coordinator alone: it is only touched
// while the wheels are quiescent.
type pool struct {
	cfg      Config
	cal      *Calibration
	deadline sim.Duration
	blades   []*blade
	rr       int
	now      sim.Time
	sharded  bool

	// fleet is the multi-pool routing/autoscaling layer (DESIGN.md §13);
	// nil selects the classic single-pool admission path. In fleet mode
	// p.blades still holds every blade (pool-major, blade-index order) —
	// the wheels, the ledger merge, and the lifecycle machinery are
	// shared — while fleet.pools partitions them for routing.
	fleet *fleetState

	// lastTouched is the wheel index the most recent admit dispatched or
	// queued into (−1 when the request was shed), letting the lookahead
	// coordinator refresh its horizon in O(1) via sim.HorizonAfter.
	lastTouched int

	shedRejected   int
	placeFallbacks int

	// Lifecycle coordinator state: the compiled blade-fault schedule
	// (sorted, consumed via fi) and the pending re-admissions heap. Both
	// are coordinator-only, like the admission state above.
	faultSched []bladeEvent
	fi         int
	reroutes   rerouteHeap
	rerouteSeq uint64

	// Coordinator-side synchronization accounting (sharded run only):
	// epochs/barriers from the engine, windowAdmits counts arrivals the
	// lookahead coordinator committed without paying a barrier, and
	// barrierWait is the engine's accumulated virtual idle time.
	epochs       uint64
	barriers     uint64
	windowAdmits int
	barrierWait  sim.Duration

	// ctr records coordinator-lane trace events (one instant per epoch
	// barrier) when Config.Instrument is set; nil otherwise.
	ctr *trace.Recorder

	// placeOrder scratch, hoisted out of the admission hot path.
	ordBuf   []*blade
	scoreBuf []sim.Duration
	idxBuf   []int
}

// coordLane is the trace lane carrying coordinator events (epoch
// barriers), distinct from the per-blade lanes.
const coordLane = "coordinator"

func newPool(cfg Config, cal *Calibration, deadline sim.Duration) *pool {
	total := cfg.Blades
	if cfg.Pools > 0 {
		// Fleet mode: Blades is the per-pool size, the run owns
		// Pools × Blades blades in pool-major order.
		total = cfg.Blades * cfg.Pools
	}
	p := &pool{
		cfg:         cfg,
		cal:         cal,
		deadline:    deadline,
		lastTouched: -1,
		ordBuf:      make([]*blade, total),
		scoreBuf:    make([]sim.Duration, total),
		idxBuf:      make([]int, total),
	}
	if cfg.Instrument {
		p.ctr = trace.NewRecorder()
	}
	for i := 0; i < total; i++ {
		b := &blade{
			id:    i,
			lane:  fmt.Sprintf("blade%d", i),
			spare: make([]Request, 0, cfg.MaxBatch),
			tr:    trace.Nop{},
		}
		if cfg.Instrument {
			b.rec = trace.NewRecorder()
			b.tr = b.rec
		}
		p.blades = append(p.blades, b)
	}
	if cfg.Pools > 0 {
		p.fleet = newFleet(p)
	}
	return p
}

// run plays the sequential event loop over the arrival stream until every
// admitted request has completed or been shed. It is the reference
// semantics the sharded run must reproduce byte-for-byte.
//
// Event priority at equal timestamps: completions, then lifecycle
// faults, then re-admissions of evicted requests, then fresh arrivals —
// the same total order the sharded coordinator derives from inclusive
// RunUntil plus coordClass. The run ends when no completion, re-route,
// or arrival remains; lifecycle faults scheduled past that point never
// fire (armed-but-unfired, see faultEligible).
func (p *pool) run(reqs []Request) {
	ai := 0
	for {
		nextArr := sim.Never
		if ai < len(reqs) {
			nextArr = reqs[ai].Arrival
		}
		db := p.earliestBusy()
		doneT := sim.Never
		if db != nil {
			doneT = db.done
		}
		nextRer := sim.Never
		if len(p.reroutes) > 0 {
			nextRer = p.reroutes[0].at
		}
		if doneT == sim.Never && nextRer == sim.Never && nextArr == sim.Never {
			return
		}
		nextFault := sim.Never
		if p.fi < len(p.faultSched) {
			nextFault = p.faultSched[p.fi].at
		}
		nextTick := p.nextTick()
		switch {
		case doneT <= nextFault && doneT <= nextTick && doneT <= nextRer && doneT <= nextArr:
			p.now = doneT
			p.complete(db)
		case nextFault <= nextTick && nextFault <= nextRer && nextFault <= nextArr:
			p.now = nextFault
			p.applyFault(p.faultSched[p.fi])
			p.fi++
		case nextTick <= nextRer && nextTick <= nextArr:
			p.now = nextTick
			p.autoscaleTick()
		case nextRer <= nextArr:
			p.now = nextRer
			p.admit(p.popReroute())
		default:
			p.now = nextArr
			p.admit(reqs[ai])
			ai++
		}
	}
}

// runSharded plays the identical semantics on one event wheel per blade.
// With lookahead off, each distinct arrival timestamp is an epoch
// barrier: the coordinator admits that instant's arrivals alone, in
// stream order, exactly as the sequential loop would. RunUntil is
// inclusive of the barrier time, so completions at an arrival's
// timestamp still precede the admission, matching the sequential loop's
// tie-break.
//
// With lookahead on, the coordinator exploits the conservative horizon
// (ShardedEngine.Horizon — the earliest pending event across all
// wheels): while the wheels are quiescent, any arrival strictly below
// the horizon can be admitted immediately, because no wheel event — in
// particular no completion — exists at or before its timestamp, so the
// per-arrival schedule would have admitted it into exactly this pool
// state anyway. Admission itself schedules completion events (shrinking
// the horizon), so the horizon is re-read after every commit. Only the
// first arrival at or past the horizon forces a barrier; arrivals
// sharing that barrier's timestamp are then admitted after the epoch
// runs, preserving the completions-before-same-instant-arrivals rule.
// The two schedules produce identical per-wheel event sequences, so the
// reports are byte-identical — lookahead only deletes barriers whose
// ordering constraints were vacuous.
//
// Lifecycle faults are coordinator-observed events: a planned blade
// fault is always a barrier (killing a blade reads and writes state
// across the pool, so the wheels must be quiescent), and the engine
// fence (ShardedEngine.SetFence) pins the horizon at the next scheduled
// fault instant, so lookahead windows structurally cannot admit past a
// fault even before any wheel knows about it. Re-admissions of evicted
// requests window-admit exactly like arrivals when strictly below the
// horizon. Same-instant ordering matches the sequential loop: wheel
// completions run inside the epoch (RunUntil is inclusive), then the
// barrier applies faults, re-admissions, and arrivals in coordClass
// order.
func (p *pool) runSharded(reqs []Request, workers int, lookahead bool) error {
	sh := sim.NewSharded(len(p.blades), workers)
	for i, b := range p.blades {
		b.wheel = sh.Wheel(i)
	}
	p.sharded = true
	ai := 0
	p.setFence(sh)
	err := sh.Run(
		func() (sim.Time, bool) {
			h := sh.Horizon()
			for {
				t, class, ok := p.nextCoord(reqs, ai)
				if !ok {
					return 0, false
				}
				// Coordinator-scheduled instants (faults, autoscale
				// ticks) are always barriers: they read and write state
				// across the pool, so the wheels must be quiescent.
				if !lookahead || class == coordFault || class == coordTick || t >= h {
					return t, true
				}
				// p.now drives placement scoring and deadline shedding,
				// so it must track each admitted event exactly as a
				// barrier at that instant would have set it.
				p.now = t
				if class == coordReroute {
					p.admit(p.popReroute())
				} else {
					p.admit(reqs[ai])
					ai++
				}
				p.windowAdmits++
				// Admission touches at most one wheel, so the horizon
				// refresh is O(1) instead of an all-wheels rescan.
				if p.lastTouched >= 0 {
					h = sh.HorizonAfter(p.lastTouched, h)
				}
			}
		},
		func(t sim.Time) {
			p.barriers++
			if p.ctr != nil {
				p.ctr.Instant(coordLane, t, "epoch barrier")
			}
			p.now = t
			for p.fi < len(p.faultSched) && p.faultSched[p.fi].at == t {
				if !p.faultEligible(reqs, ai) {
					// The last request resolved during this epoch: the
					// run is over and every remaining fault stays
					// armed-but-unfired, as in the sequential loop.
					p.fi = len(p.faultSched)
					break
				}
				p.applyFault(p.faultSched[p.fi])
				p.fi++
			}
			for p.nextTick() == t {
				if !p.faultEligible(reqs, ai) {
					// Run over: the autoscaler stops sampling, exactly as
					// the sequential loop returns before a trailing tick.
					p.fleet.scaler.next = sim.Never
					break
				}
				p.autoscaleTick()
			}
			p.setFence(sh)
			for len(p.reroutes) > 0 && p.reroutes[0].at == t {
				p.admit(p.popReroute())
			}
			for ai < len(reqs) && reqs[ai].Arrival == t {
				p.admit(reqs[ai])
				ai++
			}
		},
	)
	p.epochs = sh.Epochs()
	p.barrierWait = sh.BarrierWait()
	return err
}

// setFence pins the engine fence at the earliest coordinator-scheduled
// instant — the next planned fault or autoscale tick — so lookahead
// windows structurally cannot admit past it even before any wheel knows
// about it.
func (p *pool) setFence(sh *sim.ShardedEngine) {
	fence := sim.Never
	if p.fi < len(p.faultSched) {
		fence = p.faultSched[p.fi].at
	}
	if tick := p.nextTick(); tick < fence {
		fence = tick
	}
	sh.SetFence(fence)
}

// earliestBusy returns the busy blade finishing first (lowest index on
// ties), or nil when the pool is idle.
func (p *pool) earliestBusy() *blade {
	var best *blade
	for _, b := range p.blades {
		if b.busy && (best == nil || b.done < best.done) {
			best = b
		}
	}
	return best
}

// estOne is the estimator's per-request service estimate (a lone
// dispatch), used to score queue backlogs and deadline feasibility. When
// the Eq. 3 estimate is inconclusive it falls back to the measured
// single-request service, which the calibration table always has.
func (p *pool) estOne(r Request) sim.Duration {
	if est := p.cal.estService(SchemeJob, r.Tall, 1); est > 0 {
		return est
	}
	return p.cal.service(svcKey{Scheme: SchemeJob, Tall: r.Tall, K: 1}).Service
}

// bladeScore is the estimator's finish frontier for one blade: the
// remaining in-flight work, plus warmup for a cold or restarted blade,
// plus the estimated backlog of its queue. Both the per-pool placement
// order and the fleet router's frontier comparison rank by it.
// Coordinator-only (reads cross-blade state through p.now).
func (p *pool) bladeScore(b *blade) sim.Duration {
	var s sim.Duration
	if b.busy {
		s += b.done.Sub(p.now)
	}
	if !b.warm {
		s += p.cal.service(svcKey{Scheme: SchemeJob, Tall: false, K: 1}).Warmup
	}
	for _, q := range b.queue {
		s += p.estOne(q)
	}
	return s
}

// placeOrder ranks the whole pool's admittable blades (the classic
// single-pool path; the fleet router ranks within the routed pool via
// placeOrderIn).
func (p *pool) placeOrder(r Request) []*blade {
	return p.placeOrderIn(r, p.blades, &p.rr)
}

// placeOrderIn ranks the admittable blades of one candidate set for
// admitting r — lifecycle health is the circuit breaker: draining,
// stalled, parked, and dead blades never appear in the order. The
// estimator policy orders by earliest estimated finish (bladeScore); the
// round-robin policy — and the estimator when its scores cannot separate
// the blades — uses plain rotation over rr, which belongs to the
// candidate set (the pool shard in fleet mode). With every blade healthy
// the order is exactly the pre-lifecycle one. The returned slice is pool
// scratch, valid until the next call (coordinator-only); it is empty
// when no blade is admittable.
func (p *pool) placeOrderIn(r Request, blades []*blade, rr *int) []*blade {
	n := len(blades)
	rot := func() []*blade {
		out := p.ordBuf[:0]
		for i := 0; i < n; i++ {
			if b := blades[(*rr+i)%n]; b.health.admittable() {
				out = append(out, b)
			}
		}
		*rr = (*rr + 1) % n
		return out
	}
	if p.cfg.Policy == PolicyRoundRobin || !p.cal.Conclusive() {
		return rot()
	}
	scores := p.scoreBuf[:n]
	idx := p.idxBuf[:0]
	for i, b := range blades {
		if !b.health.admittable() {
			continue
		}
		scores[i] = p.bladeScore(b)
		idx = append(idx, i)
	}
	if len(idx) == 0 {
		return p.ordBuf[:0]
	}
	min, max := scores[idx[0]], scores[idx[0]]
	for _, i := range idx[1:] {
		if scores[i] < min {
			min = scores[i]
		}
		if scores[i] > max {
			max = scores[i]
		}
	}
	if min == max {
		// All admittable blades look identical to the estimator:
		// inconclusive, so rotate to avoid piling onto the lowest index.
		p.placeFallbacks++
		return rot()
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	out := p.ordBuf[:len(idx)]
	for i, j := range idx {
		out[i] = blades[j]
	}
	return out
}

// admitInto places r on the first blade of order with queue room,
// dispatching immediately if that blade is idle, and reports whether
// the request was admitted. The touched wheel is recorded for the
// lookahead coordinator's O(1) horizon refresh.
func (p *pool) admitInto(r Request, order []*blade) bool {
	for _, b := range order {
		if len(b.queue) < p.cfg.MaxQueue {
			b.queue = append(b.queue, r)
			p.lastTouched = b.id
			if !b.busy {
				p.dispatch(b, p.now)
			}
			return true
		}
	}
	return false
}

// admit places one request (a fresh arrival or a re-routed eviction) on
// the first blade in policy preference order with queue room,
// dispatching immediately if that blade is idle. Requests finding every
// candidate queue full — or no admittable blade at all — are shed
// (backpressure). In fleet mode the router first picks the pool
// (consistent hashing with estimator override), and exhausted candidacy
// is global backpressure (shed_global). Admission always runs on the
// coordinator: in the sharded run the wheels are quiescent at the
// barrier, so the synchronous dispatch here observes exactly the state
// the sequential loop would.
func (p *pool) admit(r Request) {
	p.lastTouched = -1
	if p.fleet != nil {
		p.admitFleet(r)
		return
	}
	order := p.placeOrder(r)
	if p.admitInto(r, order) {
		return
	}
	p.shedRejected++
	if len(order) > 0 {
		first := order[0]
		trace.RecordInstant(first.tr, first.lane, p.now, fmt.Sprintf("shed-rejected req %d", r.ID))
	} else if p.ctr != nil {
		p.ctr.Instant(coordLane, p.now, fmt.Sprintf("shed-rejected req %d (no admittable blade)", r.ID))
	}
}

// dispatch sheds queued requests that can no longer meet their deadline,
// coalesces the head-compatible requests into one batch, picks the
// scheduling scheme, and starts the dispatch on b at virtual time now.
// It runs either on the coordinator (admission to an idle blade) or on
// b's own wheel (completion-triggered redispatch), so it must only touch
// b and immutable pool state.
func (p *pool) dispatch(b *blade, now sim.Time) {
	// A request that cannot finish by its deadline even if dispatched
	// alone right now is hopeless: shed it instead of wasting a blade.
	keep := b.queue[:0]
	for _, r := range b.queue {
		if r.Deadline != sim.Never && now.Add(p.estOne(r)) > r.Deadline {
			b.shedExpired++
			trace.RecordInstant(b.tr, b.lane, now, fmt.Sprintf("shed-expired req %d", r.ID))
			continue
		}
		keep = append(keep, r)
	}
	b.queue = keep
	if len(b.queue) == 0 {
		return
	}

	// Coalesce: the head request plus every same-geometry request behind
	// it, in arrival order, up to the batch bound. The batch buffer is
	// the blade's recycled spare (capacity MaxBatch), so steady-state
	// dispatch allocates nothing.
	tall := b.queue[0].Tall
	batch := b.spare[:0]
	rest := b.queue[:0]
	for _, r := range b.queue {
		if r.Tall == tall && len(batch) < p.cfg.MaxBatch {
			batch = append(batch, r)
		} else {
			rest = append(rest, r)
		}
	}
	b.queue = rest

	scheme := SchemeJob
	if p.cfg.Policy == PolicyEstimator && p.cal.Conclusive() {
		if s, _, ok := p.cal.estBest(tall, len(batch)); ok {
			scheme = s
		} else {
			b.schemeFallbacks++ // estimate can't separate the schemes: job-distribution default
		}
	}

	s := p.cal.service(svcKey{Scheme: scheme, Tall: tall, K: len(batch)})
	start := now
	if !b.warm {
		// A restarted blade comes back cold, so warmup can recur;
		// warmupTime accumulates every charge.
		b.warm = true
		b.warmupTime += s.Warmup
		b.tr.Span(b.lane, start, start.Add(s.Warmup), trace.KindIO, "warmup: model library load")
		start = start.Add(s.Warmup)
	}
	b.busy = true
	b.start = start
	b.done = start.Add(s.Service)
	b.cur = batch
	b.deg = s.Degraded
	b.dispatches++
	b.batches++
	b.batchRequests += len(batch)
	b.schemeBatches[scheme]++
	geom := ""
	if tall {
		geom = " tall"
	}
	b.tr.Span(b.lane, start, b.done, trace.KindCompute,
		fmt.Sprintf("batch#%d ×%d %s%s", b.dispatches, len(batch), scheme, geom))

	if p.cfg.FullFidelity {
		b.noteKey(svcKey{Scheme: scheme, Tall: tall, K: len(batch)})
	}
	p.scheduleCompletion(b)
}

// scheduleCompletion schedules b's current dispatch completion on its
// wheel (no-op in the sequential loop, which polls earliestBusy). The
// closure captures the dispatch generation: a kill or stall that rewrote
// the dispatch bumps b.gen, so the stale event fires, finds a newer
// generation, and returns without touching the ledger.
func (p *pool) scheduleCompletion(b *blade) {
	if b.wheel == nil {
		return
	}
	gen := b.gen
	b.wheel.At(b.done, func() {
		if b.gen == gen {
			p.complete(b)
		}
	})
}

// noteKey records k in the blade's verification set unless it is already
// there. The set is bounded by the calibration table (schemes × geometries
// × batch sizes), so a linear scan beats a map.
func (b *blade) noteKey(k svcKey) {
	for _, have := range b.keys {
		if have == k {
			return
		}
	}
	b.keys = append(b.keys, k)
}

// verifyDispatched re-runs the full machine simulation once per distinct
// service key the run dispatched and cross-checks each result against the
// calibration table entry the event loop charged. The nested run is a pure
// function of its config, and the config depends only on the key, so one
// run proves every dispatch that used it; any divergence means the table
// no longer describes the machine.
//
// The keys are ordered by blade index, then by each blade's first
// dispatch, and each is attributed to the first blade that dispatched it.
// RunIndexed returns the lowest-index error, so the error names the
// lowest blade that dispatched a diverging key and that blade's first
// such key, at any parallelism.
func (p *pool) verifyDispatched() error {
	type owned struct {
		key   svcKey
		blade int
	}
	var keys []owned
	seen := map[svcKey]bool{}
	for _, b := range p.blades {
		for _, k := range b.keys {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, owned{key: k, blade: b.id})
			}
		}
	}
	_, err := parallel.RunIndexed(p.cfg.Parallel, len(keys), func(i int) (struct{}, error) {
		return struct{}{}, p.verifyKey(keys[i].blade, keys[i].key)
	})
	return err
}

// verifyKey runs one dispatch key's full machine simulation and compares
// it with the table entry; blade only attributes the error.
func (p *pool) verifyKey(blade int, k svcKey) error {
	res, err := marvel.RunPorted(p.cfg.portedConfig(k.Scheme.scenario(), k.Tall, k.K, true))
	if err != nil {
		return fmt.Errorf("serve: blade %d: full-fidelity dispatch %s/tall=%v/k=%d: %w",
			blade, k.Scheme, k.Tall, k.K, err)
	}
	if got, want := measuredSvc(res), p.cal.service(k); got != want {
		return fmt.Errorf("serve: blade %d: full-fidelity dispatch %s/tall=%v/k=%d diverged from calibration: got %v want %v",
			blade, k.Scheme, k.Tall, k.K, got, want)
	}
	return nil
}

// complete retires b's in-flight batch, accounts per-request latency and
// deadline outcomes on the blade, and immediately redispatches if work
// is queued. In the sharded run it fires as an event on b's wheel, so it
// derives its own time from the dispatch record rather than the
// coordinator clock.
func (p *pool) complete(b *blade) {
	t := b.done
	for _, r := range b.cur {
		b.served++
		b.latencies = append(b.latencies, t.Sub(r.Arrival))
		if r.Deadline != sim.Never && t > r.Deadline {
			b.late++
		}
		if b.deg {
			b.degraded++
		}
	}
	b.requests += len(b.cur)
	b.busyTime += t.Sub(b.start)
	if t > b.lastDone {
		b.lastDone = t
	}
	b.busy = false
	b.spare = b.cur[:0]
	b.cur = nil
	if b.health == healthWarming {
		// First completed dispatch after a restart: warmed and proven.
		b.health = healthUp
	}
	p.dispatch(b, t)
	// An autoscale-drained blade parks once its queue is served out.
	// maybePark touches only blade-owned state, so it is safe here on
	// the blade's own wheel.
	p.maybePark(b, t)
}
