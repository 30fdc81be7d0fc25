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
// in-flight dispatch (if any), and the blade's event counters. The
// blade's machine itself is not held here — dispatch timing comes from
// the calibrated service table, which was measured on a machine
// identical to the one this blade models (FullFidelity re-runs that
// machine once per distinct dispatched key to prove it).
type blade struct {
	id   int
	lane string

	queue []Request
	spare []Request // recycled batch buffer (capacity MaxBatch, reused across dispatches)
	busy  bool
	warm  bool
	start sim.Time // current dispatch start (batch work, after any warmup)
	done  sim.Time // current dispatch completion
	cur   []Request
	deg   bool // current dispatch runs degraded (supervised recovery)

	// Lifecycle state (DESIGN.md §12). health gates admission;
	// stallRestore remembers the state a transient stall must restore.
	health       health
	stallRestore health
	// restartPending pairs a fault drain with its restart fire so the
	// fire can't claim an unrelated drain; parkPending marks an
	// autoscale drain, completed by maybePark once the blade is idle
	// and empty.
	restartPending bool
	parkPending    bool

	// Events that are not request outcomes (those are pool.outcomes).
	dispatches      int
	busyTime        sim.Duration
	warmupTime      sim.Duration
	rerouted        int // evictions sent back through admission
	crashes         int
	restarts        int
	stalls          int
	batchRequests   int
	schemeFallbacks int
	schemeBatches   [numSchemes]int

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
// completions resolve by blade index.
type pool struct {
	cfg      Config
	cal      *Calibration
	deadline sim.Duration
	blades   []*blade
	rr       int
	now      sim.Time

	// fleet is the multi-pool routing/autoscaling layer (DESIGN.md §13);
	// nil selects the classic single-pool admission path. In fleet mode
	// p.blades still holds every blade (pool-major, blade-index order) —
	// the report fold and the lifecycle machinery are shared — while
	// fleet.pools partitions them for routing.
	fleet *fleetState

	// outcomes holds one terminal record per request, indexed by
	// Request.ID and written only by finish.
	outcomes []outcome

	placeFallbacks int

	// Lifecycle state: the compiled blade-fault schedule (sorted,
	// consumed via fi) and the pending re-admissions heap.
	faultSched []bladeEvent
	fi         int
	reroutes   rerouteHeap
	rerouteSeq uint64

	// ctr records coordinator-lane trace events (sheds that no blade
	// held, autoscale actions) when Config.Instrument is set; nil
	// otherwise.
	ctr *trace.Recorder

	// placeOrderIn scratch, hoisted out of the admission hot path.
	ordBuf   []*blade
	scoreBuf []sim.Duration
	idxBuf   []int
}

// coordLane is the trace lane carrying pool-wide events, distinct from
// the per-blade lanes.
const coordLane = "coordinator"

func newPool(cfg Config, cal *Calibration, deadline sim.Duration) *pool {
	total := cfg.Blades
	if cfg.Pools > 0 {
		// Fleet mode: Blades is the per-pool size, the run owns
		// Pools × Blades blades in pool-major order.
		total = cfg.Blades * cfg.Pools
	}
	p := &pool{
		cfg:      cfg,
		cal:      cal,
		deadline: deadline,
		outcomes: make([]outcome, cfg.Requests),
		ordBuf:   make([]*blade, total),
		scoreBuf: make([]sim.Duration, total),
		idxBuf:   make([]int, total),
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

// run plays the event loop over the arrival stream until every admitted
// request has completed or been shed. Each step takes the earliest
// pending event: the earliest in-flight completion (earliestBusy), the
// next planned lifecycle fault, the next autoscale tick, the earliest
// re-admission, or the next arrival.
//
// Event priority at equal timestamps: completions, then lifecycle
// faults, then autoscale ticks, then re-admissions of evicted requests,
// then fresh arrivals. The run ends when no completion, re-route, or
// arrival remains; lifecycle faults and ticks scheduled past that point
// never fire, so an armed-but-unfired plan leaves the report unchanged.
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

// placeOrderIn ranks the admittable blades of one candidate set for
// admitting r — lifecycle health is the circuit breaker: draining,
// stalled, parked, and dead blades never appear in the order. The
// estimator policy orders by earliest estimated finish (bladeScore); the
// round-robin policy — and the estimator when its scores cannot separate
// the blades — uses plain rotation over rr, which belongs to the
// candidate set (the pool shard in fleet mode). With every blade healthy
// the order is exactly the pre-lifecycle one. The returned slice is pool
// scratch, valid until the next call; it is empty when no blade is
// admittable.
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
// dispatching immediately if that blade is idle. A request finding every
// candidate queue full — or no admittable blade at all — is shed as
// rejected (backpressure), on the lane of the blade it would have
// preferred.
func (p *pool) admitInto(r Request, order []*blade) {
	for _, b := range order {
		if len(b.queue) < p.cfg.MaxQueue {
			b.queue = append(b.queue, r)
			if !b.busy {
				p.dispatch(b)
			}
			return
		}
	}
	var first *blade
	if len(order) > 0 {
		first = order[0]
	}
	p.finish(r, outShedRejected, first)
}

// admit places one request (a fresh arrival or a re-routed eviction)
// through admitInto in policy preference order. In fleet mode the router
// first picks the pool (consistent hashing with estimator override), and
// exhausted candidacy is global backpressure (shed_global).
func (p *pool) admit(r Request) {
	if p.fleet != nil {
		p.admitFleet(r)
		return
	}
	p.admitInto(r, p.placeOrderIn(r, p.blades, &p.rr))
}

// dispatch sheds queued requests that can no longer meet their deadline,
// coalesces the head-compatible requests into one batch, picks the
// scheduling scheme, and starts the dispatch on b at p.now: on
// admission to an idle blade, on a completion with work queued, or when
// a stall ends.
func (p *pool) dispatch(b *blade) {
	// A request that cannot finish by its deadline even if dispatched
	// alone right now is hopeless: shed it instead of wasting a blade.
	keep := b.queue[:0]
	for _, r := range b.queue {
		if r.Deadline != sim.Never && p.now.Add(p.estOne(r)) > r.Deadline {
			p.finish(r, outShedExpired, b)
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
	start := p.now
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

// complete retires b's in-flight batch at p.now, its completion instant,
// finishing each request as served, and immediately redispatches if work
// is queued.
func (p *pool) complete(b *blade) {
	for _, r := range b.cur {
		p.finish(r, outServed, b)
	}
	b.busyTime += p.now.Sub(b.start)
	b.busy = false
	b.spare = b.cur[:0]
	b.cur = nil
	if b.health == healthWarming {
		// First completed dispatch after a restart: warmed and proven.
		b.health = healthUp
	}
	p.dispatch(b)
	// An autoscale-drained blade parks once its queue is served out.
	p.maybePark(b)
}
