package serve

import (
	"fmt"

	"cellport/internal/fault"
	"cellport/internal/marvel"
	"cellport/internal/sim"
)

// The blade lifecycle layer (DESIGN.md §12): fleet-level fault plans
// kill, stall, and restart whole blades at planned virtual instants, and
// the pool re-routes the victims' work through the normal placement path
// under a retry budget. Every transition runs in the event loop at its
// planned instant, after that instant's completions and before its
// re-admissions and arrivals.

// health is a blade's lifecycle state. Admission treats the states as a
// circuit breaker: only admittable() states accept new requests.
//
//	      blade-restart            drain elapsed
//	up ───────────────► draining ───────────────► warming
//	 ▲                                               │
//	 └────────────── first completion ◄──────────────┘
//	up/warming ──blade-stall──► stalled ──delay──► (previous state)
//	any live state ──blade-crash──► down (terminal)
//
// The fleet autoscaler (DESIGN.md §13) adds one more state: a drained
// pool's blades park once idle and empty (powered down, warmth lost),
// and a later scale-up revives them through warming — the same
// warmup-recharge path a restart takes.
//
//	draining (parkPending) ──idle+empty──► parked ──scale-up──► warming
type health int

const (
	healthUp health = iota
	healthDraining
	healthStalled
	healthDown
	healthWarming
	healthParked
)

var healthNames = [...]string{
	healthUp:       "up",
	healthDraining: "draining",
	healthStalled:  "stalled",
	healthDown:     "down",
	healthWarming:  "warming",
	healthParked:   "parked",
}

func (h health) String() string { return healthNames[h] }

// admittable reports whether the state accepts new admissions. A warming
// blade does: it pays its re-charged warmup on the next dispatch, and
// hiding it from placement would leave restarted capacity idle.
func (h health) admittable() bool { return h == healthUp || h == healthWarming }

// bladeEventKind is one lifecycle transition instant. A blade-crash plan
// entry compiles to one event; blade-stall and blade-restart compile to
// a begin/end pair.
type bladeEventKind int

const (
	evBladeCrash bladeEventKind = iota
	evDrainStart
	evRestartFire
	evStallStart
	evStallEnd
)

// bladeEvent is one compiled lifecycle instant.
type bladeEvent struct {
	at    sim.Time
	kind  bladeEventKind
	blade int
	delay sim.Duration // stall length (evStallStart only)
}

// armFleet schedules the plan's fleet-level faults, in plan order so
// same-instant transitions keep it. Blade indices must name blades of
// this pool.
func (p *pool) armFleet(plan *fault.Plan) error {
	for _, f := range plan.FleetFaults() {
		if f.Blade < 0 || f.Blade >= len(p.blades) {
			return fmt.Errorf("serve: fault %q targets blade %d of a %d-blade pool", f, f.Blade, len(p.blades))
		}
		sched := func(t sim.Time, kind bladeEventKind, delay sim.Duration) {
			p.schedule(event{at: t, kind: eventFault, fault: bladeEvent{at: t, kind: kind, blade: f.Blade, delay: delay}})
		}
		switch f.Kind {
		case fault.BladeCrash:
			sched(f.At, evBladeCrash, 0)
		case fault.BladeStall:
			sched(f.At, evStallStart, f.Delay)
			sched(f.At.Add(f.Delay), evStallEnd, 0)
		case fault.BladeRestart:
			sched(f.At, evDrainStart, 0)
			sched(f.At.Add(f.Drain), evRestartFire, 0)
		}
	}
	return nil
}

// applyFault runs one lifecycle transition at p.now. Guards
// make overlapping plans first-wins: a transition finding its blade in
// an incompatible state (already down, already stalled, stall on a
// draining blade) is a no-op, deterministically in plan order.
func (p *pool) applyFault(ev bladeEvent) {
	b := p.blades[ev.blade]
	switch ev.kind {
	case evBladeCrash:
		if b.health == healthDown {
			return
		}
		b.crashes++
		b.health = healthDown
		// Death cancels whatever was pending: the paired restart fire
		// finds the blade down and no-ops, and a queued autoscale park
		// has nothing left to park.
		b.restartPending = false
		b.parkPending = false
		b.rec.Instant(b.lane, p.now, "blade-crash")
		p.killBlade(b)
	case evDrainStart:
		if !b.health.admittable() {
			return
		}
		b.health = healthDraining
		// restartPending pairs this drain with its evRestartFire: a fire
		// whose own drain no-op'd (blade was already draining, stalled,
		// or parked) must not hijack an unrelated drain — in particular
		// an autoscale drain, where firing would re-charge warmup on a
		// blade that never restarted.
		b.restartPending = true
		b.rec.Instant(b.lane, p.now, "restart: draining")
	case evRestartFire:
		if b.health != healthDraining || !b.restartPending {
			return
		}
		b.restartPending = false
		b.parkPending = false // the restart supersedes a queued autoscale park
		b.restarts++
		b.health = healthWarming
		b.warm = false // warmup re-charged on the next dispatch
		b.rec.Instant(b.lane, p.now, "restart: warming")
		p.killBlade(b)
	case evStallStart:
		if !b.health.admittable() {
			return
		}
		b.stalls++
		b.stallRestore = b.health
		b.health = healthStalled
		if b.rec != nil {
			b.rec.Instant(b.lane, p.now, fmt.Sprintf("blade-stall %s", ev.delay))
		}
		if b.busy {
			// The in-flight dispatch finishes late by the stall length.
			p.cancelCompletion(b)
			if b.start > p.now {
				b.start = b.start.Add(ev.delay)
			}
			b.done = b.done.Add(ev.delay)
			p.schedule(b.completion())
		}
	case evStallEnd:
		if b.health != healthStalled {
			return
		}
		b.health = b.stallRestore
		if b.parkPending {
			// An autoscale drain arrived mid-stall: the blade resumes
			// directly into draining (it still serves out its queue, then
			// parks) instead of its pre-stall admittable state.
			b.health = healthDraining
		}
		b.rec.Instant(b.lane, p.now, "stall-end")
		if !b.busy && len(b.queue) > 0 {
			p.dispatch(b)
		}
		p.maybePark(b)
	}
}

// maybePark completes an autoscale drain: a draining blade with the park
// flag set powers down once it has neither in-flight work nor queue.
// Parking loses warmth, so a later scale-up re-charges warmup exactly
// like a restart.
func (p *pool) maybePark(b *blade) {
	if !b.parkPending || b.health != healthDraining || b.busy || len(b.queue) > 0 {
		return
	}
	b.parkPending = false
	b.health = healthParked
	b.warm = false
	b.rec.Instant(b.lane, p.now, "autoscale: parked")
}

// killBlade evicts b's work at p.now: the in-flight batch first (in
// batch order), then the queue (in admission order), each request going
// through the retry machinery. Partial busy time up to the kill instant
// is accounted so utilization stays honest.
func (p *pool) killBlade(b *blade) {
	if b.busy {
		p.cancelCompletion(b)
		if p.now > b.start {
			b.busyTime += p.now.Sub(b.start)
		}
		b.busy = false
		for _, r := range b.cur {
			p.reroute(b, r)
		}
		b.spare = b.cur[:0]
		b.cur = nil
	}
	for _, r := range b.queue {
		p.reroute(b, r)
	}
	b.queue = b.queue[:0]
	b.backlog = 0
}

// reroute sends one evicted request back through admission after an
// exponential virtual-time backoff (marvel.BackoffDelay, the supervision
// loop's law), unless its retry budget is exhausted (shed as exhausted)
// or the backoff alone already overshoots its deadline (shed as rerouted
// — it died in transit). Sheds are attributed to the blade that lost the
// request.
func (p *pool) reroute(b *blade, r Request) {
	r.Attempts++
	if r.Attempts > p.cfg.RetryBudget {
		p.finish(r, outShedExhausted, b)
		return
	}
	at := p.now.Add(marvel.BackoffDelay(p.cfg.RetryBackoff, r.Attempts))
	if r.Deadline != sim.Never && at > r.Deadline {
		p.finish(r, outShedRerouted, b)
		return
	}
	b.rerouted++
	p.schedule(event{at: at, kind: eventReadmit, req: r})
}
