package serve

import (
	"fmt"
	"slices"
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
	lane string // trace and metrics lane name; set only with Config.Instrument

	queue []Request
	spare []Request // recycled batch buffer (capacity MaxBatch, reused across dispatches)
	busy  bool
	warm  bool
	start sim.Time // current dispatch start (batch work, after any warmup)
	done  sim.Time // current dispatch completion
	cur   []Request
	deg   bool // current dispatch runs degraded (supervised recovery)

	// backlog is the sum of estOne over queue, kept in step at every
	// queue change (admitInto, dispatch, killBlade) so bladeScore is
	// O(1). Run fails if a blade ends with a queue or a backlog.
	backlog sim.Duration

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

	// rec records the blade's spans and instants when Config.Instrument
	// is set; nil otherwise. A formatted label is built only behind a
	// rec != nil guard, so an uninstrumented run formats none.
	rec *trace.Recorder
}

// pool is the deterministic serving event loop: a virtual clock advanced
// strictly by the arrival stream and the scheduled events (eventKind
// orders those that share an instant).
type pool struct {
	cfg      Config
	cal      *Calibration
	deadline sim.Duration
	blades   []*blade
	rr       int
	now      sim.Time

	// Per-run estimator constants, resolved once from cal in newPool:
	// whether the Eq. 3 estimate is usable, estOne per geometry
	// (geomIndex), and the warmup a cold blade's score charges.
	conclusive bool
	estOnes    [numGeoms]sim.Duration
	coldWarmup sim.Duration

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

	// events holds every scheduled event, latest first (the next is last).
	events []event

	// ctr records coordinator-lane trace events (sheds that no blade
	// held, autoscale actions) when Config.Instrument is set; nil
	// otherwise.
	ctr *trace.Recorder
}

// coordLane is the trace lane carrying pool-wide events, distinct from
// the per-blade lanes.
const coordLane = "coordinator"

func newPool(cfg Config, cal *Calibration, deadline sim.Duration) *pool {
	total := cfg.bladeCount()
	p := &pool{
		cfg:      cfg,
		cal:      cal,
		deadline: deadline,
		outcomes: make([]outcome, cfg.Requests),

		conclusive: cal.Conclusive(),
		coldWarmup: cal.service(svcKey{Scheme: SchemeJob, Tall: false, K: 1}).Warmup,
		// Room for every blade's completion, the tick, and the
		// re-admissions of one eviction of every blade's work.
		events: make([]event, 0, total*(1+cfg.MaxQueue+cfg.MaxBatch)+1),
	}
	for _, tall := range []bool{false, true} {
		est := cal.estService(SchemeJob, tall, 1)
		if est <= 0 {
			est = cal.service(svcKey{Scheme: SchemeJob, Tall: tall, K: 1}).Service
		}
		p.estOnes[geomIndex(tall)] = est
	}
	if cfg.Instrument {
		p.ctr = trace.NewRecorder()
	}
	for i := 0; i < total; i++ {
		b := &blade{
			id:    i,
			spare: make([]Request, 0, cfg.MaxBatch),
		}
		if cfg.Instrument {
			b.lane = fmt.Sprintf("blade%d", i)
			b.rec = trace.NewRecorder()
		}
		p.blades = append(p.blades, b)
	}
	if cfg.Pools > 0 {
		p.fleet = newFleet(p)
	}
	return p
}

// eventKind ranks the events that share an instant. Arrivals stream from
// the sorted request slice and lose every tie.
type eventKind uint8

const (
	eventCompletion eventKind = iota
	eventFault
	eventTick
	eventReadmit
)

// event is one scheduled instant. key (the blade index) orders
// same-instant completions; other ties fire in schedule order: a fault's
// plan order, a re-admission's eviction order.
type event struct {
	at    sim.Time
	kind  eventKind
	key   int
	fault bladeEvent // eventFault
	req   Request    // eventReadmit
}

// after reports whether e orders after o by (at, kind, key).
func (e *event) after(o *event) bool {
	if e.at != o.at {
		return e.at > o.at
	}
	return e.kind > o.kind || e.kind == o.kind && e.key > o.key
}

// schedule inserts e ahead of its equals, so ties fire in schedule
// order. The search compares in place (slices.BinarySearchFunc would
// copy an event per probe). An event at sim.Never is dropped: it could
// only fire after the run has ended.
func (p *pool) schedule(e event) {
	if e.at == sim.Never {
		return
	}
	i := sort.Search(len(p.events), func(i int) bool { return !p.events[i].after(&e) })
	p.events = slices.Insert(p.events, i, e)
}

// completion is b's in-flight completion event: dispatch schedules it, a
// stall moves it and a kill cancels it.
func (b *blade) completion() event { return event{at: b.done, kind: eventCompletion, key: b.id} }

// cancelCompletion removes b's scheduled completion, if any.
func (p *pool) cancelCompletion(b *blade) {
	p.events = slices.DeleteFunc(p.events, func(e event) bool { return e.kind == eventCompletion && e.key == b.id })
}

// holdsRun reports whether e keeps the run going: completions and
// re-admissions do, faults and ticks do not.
func holdsRun(e event) bool { return e.kind == eventCompletion || e.kind == eventReadmit }

// run plays the event loop over the arrival stream until every admitted
// request has completed or been shed. Each step takes the earliest
// scheduled event, or the next arrival when it is strictly earlier; the
// loop waits on the producer only when the next arrival is not yet
// published.
//
// The run ends when no completion, re-admission or arrival remains;
// lifecycle faults and ticks scheduled past that point never fire, so an
// armed-but-unfired plan leaves the report unchanged.
func (p *pool) run(s *stream) {
	reqs, ai := s.reqs, 0
	for ai < len(reqs) || slices.ContainsFunc(p.events, holdsRun) {
		n := len(p.events) - 1
		if ai < len(reqs) {
			if ai == s.avail {
				s.await()
			}
			if n < 0 || reqs[ai].Arrival < p.events[n].at {
				p.now = reqs[ai].Arrival
				p.admit(reqs[ai])
				ai++
				continue
			}
		}
		e := p.events[n]
		p.events = p.events[:n]
		p.now = e.at
		switch e.kind {
		case eventCompletion:
			p.complete(p.blades[e.key])
		case eventFault:
			p.applyFault(e.fault)
		case eventTick:
			p.autoscaleTick()
		case eventReadmit:
			p.admit(e.req)
		}
	}
}

// estOne is the estimator's per-request service estimate (a lone
// dispatch), used to score queue backlogs and deadline feasibility. When
// the Eq. 3 estimate is inconclusive it falls back to the measured
// single-request service, which the calibration table always has.
// newPool resolves both geometries once.
func (p *pool) estOne(r Request) sim.Duration {
	return p.estOnes[geomIndex(r.Tall)]
}

// bladeScore is the estimator's finish frontier for one blade: the
// remaining in-flight work, plus warmup for a cold or restarted blade,
// plus the estimated backlog of its queue. Both per-pool placement and
// the fleet router's frontier comparison rank by it.
func (p *pool) bladeScore(b *blade) sim.Duration {
	s := b.backlog
	if b.busy {
		s += b.done.Sub(p.now)
	}
	if !b.warm {
		s += p.coldWarmup
	}
	return s
}

// place picks, in one pass over a candidate set, the blade an admission
// goes to (pick: nil when every admittable queue is full) and the blade
// it prefers (first: the one a rejection is charged to; nil when no
// blade is admittable). Lifecycle health is the circuit breaker:
// draining, stalled, parked, and dead blades are never candidates. The
// estimator policy prefers the least (bladeScore, index); the
// round-robin policy — and the estimator when its scores cannot
// separate the admittable blades — rotates over rr, which belongs to the
// candidate set (the pool shard in fleet mode). With every blade healthy
// the choice is exactly the pre-lifecycle one.
func (p *pool) place(blades []*blade, rr *int) (pick, first *blade) {
	if p.cfg.Policy != PolicyRoundRobin && p.conclusive {
		var min, max, pickScore sim.Duration
		for _, b := range blades {
			if !b.health.admittable() {
				continue
			}
			s := p.bladeScore(b)
			switch {
			case first == nil:
				first, min, max = b, s, s
			case s < min:
				first, min = b, s
			case s > max:
				max = s
			}
			if len(b.queue) < p.cfg.MaxQueue && (pick == nil || s < pickScore) {
				pick, pickScore = b, s
			}
		}
		if first == nil || min != max {
			return pick, first
		}
		// All admittable blades look identical to the estimator:
		// inconclusive, so rotate to avoid piling onto the lowest index.
		p.placeFallbacks++
		pick, first = nil, nil
	}
	n := len(blades)
	for i := 0; i < n && pick == nil; i++ {
		if b := blades[(*rr+i)%n]; b.health.admittable() {
			if first == nil {
				first = b
			}
			if len(b.queue) < p.cfg.MaxQueue {
				pick = b
			}
		}
	}
	*rr = (*rr + 1) % n
	return pick, first
}

// admitInto places r on the blade place picks from blades, dispatching
// immediately if that blade is idle. A request finding every candidate
// queue full — or no admittable blade at all — is shed as rejected
// (backpressure), on the lane of the blade it would have preferred.
func (p *pool) admitInto(r Request, blades []*blade, rr *int) {
	b, first := p.place(blades, rr)
	if b == nil {
		p.finish(r, outShedRejected, first)
		return
	}
	b.queue = append(b.queue, r)
	b.backlog += p.estOne(r)
	if !b.busy {
		p.dispatch(b)
	}
}

// admit places one request (a fresh arrival or a re-routed eviction)
// through admitInto. In fleet mode the router first picks the pool
// (first fit with estimator override), and exhausted candidacy is
// global backpressure (shed_global).
func (p *pool) admit(r Request) {
	if p.fleet != nil {
		p.admitFleet(r)
		return
	}
	p.admitInto(r, p.blades, &p.rr)
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
		if est := p.estOne(r); r.Deadline != sim.Never && p.now.Add(est) > r.Deadline {
			b.backlog -= est
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
	b.backlog -= sim.Duration(len(batch)) * p.estOnes[geomIndex(tall)]

	scheme := SchemeJob
	if p.cfg.Policy == PolicyEstimator && p.conclusive {
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
		b.rec.Span(b.lane, start, start.Add(s.Warmup), trace.KindIO, "warmup: model library load")
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
	p.schedule(b.completion())
	if b.rec != nil {
		geom := ""
		if tall {
			geom = " tall"
		}
		b.rec.Span(b.lane, start, b.done, trace.KindCompute,
			fmt.Sprintf("batch#%d ×%d %s%s", b.dispatches, len(batch), scheme, geom))
	}

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
