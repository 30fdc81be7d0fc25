package serve

import (
	"cellport/internal/sim"
)

// The fleet autoscaler: a deterministic controller sampling virtual-time
// load signals on a fixed tick grid. Each tick reads two pool-wide
// observables over the active pools — queue depth relative to capacity,
// and the estimated finish lag behind the frontier — averages them over
// a sliding window, and moves one pool per decision: activate the
// lowest-index drainable-back pool on sustained overload, drain the
// highest-index active pool on sustained idleness. Ticks are scheduled
// instants like planned faults, ordered after faults and before
// re-admissions at equal timestamps, so every schedule decision is a
// pure function of the virtual history and fleet runs stay
// byte-identical at any worker count.

// Autoscale arms the fleet autoscaler (Config.Autoscale nil runs a
// static fleet). It has no settings: the policy is the fixed constants
// below.
type Autoscale struct{}

// The autoscaler's fixed policy. A sample is taken every 1/16 of the
// expected arrival span (so a run takes ~16 samples); the last
// scaleWindow samples are averaged before a decision, and the window
// refills from empty after every scale action, giving the fleet time to
// absorb the change. A mean load above scaleHigh activates a pool (the
// active blades hold roughly a full queue's worth of estimated work
// each); a mean below scaleLow drains one. The active count stays
// between one pool and every pool.
const (
	scaleSamples = 16
	scaleWindow  = 3
	scaleHigh    = 1.0
	scaleLow     = 0.25
)

// autoscaler is the armed controller: the tick interval and the sliding
// sample window.
type autoscaler struct {
	interval sim.Duration
	window   []float64
}

// armAutoscale arms the controller on the fleet. span is the expected
// arrival span of the stream, the unit of the sample interval. No-op
// outside fleet mode or without an Autoscale config.
func (p *pool) armAutoscale(span sim.Duration) {
	if p.fleet == nil || p.cfg.Autoscale == nil {
		return
	}
	interval := span / scaleSamples
	if interval <= 0 {
		// Degenerate span (sub-femtosecond): fall back to a fixed grid
		// rather than a zero interval that would never advance the tick.
		interval = sim.Millisecond
	}
	p.fleet.scaler = &autoscaler{
		interval: interval,
		window:   make([]float64, 0, scaleWindow),
	}
	p.schedule(event{at: sim.Time(0).Add(interval), kind: eventTick})
}

// fleetLoad is the instantaneous load signal over the active pools'
// admittable blades: mean queue occupancy (fraction of MaxQueue) plus
// the mean estimated finish lag normalized to a full queue of
// single-request services. A balanced fleet at the edge of its capacity
// reads about 1.0. With no admittable blade in any active pool the
// signal saturates high, forcing a scale-up.
func (p *pool) fleetLoad() float64 {
	var queued, blades int
	var backlog sim.Duration
	for _, pl := range p.fleet.pools {
		if !pl.active {
			continue
		}
		for _, b := range pl.blades {
			if !b.health.admittable() {
				continue
			}
			blades++
			queued += len(b.queue)
			backlog += p.bladeScore(b)
		}
	}
	if blades == 0 {
		return 2 * scaleHigh
	}
	unit := p.estOne(Request{})
	if unit <= 0 {
		unit = 1
	}
	occupancy := float64(queued) / float64(blades*p.cfg.MaxQueue)
	lag := float64(backlog) / float64(blades) / float64(unit) / float64(p.cfg.MaxQueue)
	return occupancy + lag
}

// autoscaleTick takes one load sample and applies at most one scale
// action.
func (p *pool) autoscaleTick() {
	f := p.fleet
	s := f.scaler
	p.schedule(event{at: p.now.Add(s.interval), kind: eventTick})
	s.window = append(s.window, p.fleetLoad())
	if len(s.window) > scaleWindow {
		copy(s.window, s.window[1:])
		s.window = s.window[:len(s.window)-1]
	}
	if len(s.window) < scaleWindow {
		return
	}
	var sum float64
	for _, v := range s.window {
		sum += v
	}
	avg := sum / float64(len(s.window))
	active := f.activeCount()
	acted := false
	switch {
	case avg > scaleHigh && active < len(f.pools):
		acted = p.activatePool()
	case avg < scaleLow && active > 1:
		acted = p.drainPool()
	}
	if acted {
		s.window = s.window[:0]
		p.ctr.Instant(coordLane, p.now, "autoscale action")
	}
	if a := f.activeCount(); a < f.activeMin {
		f.activeMin = a
	}
}

// activatePool brings the lowest-index inactive pool with any revivable
// blade back into routing membership: parked blades power up through
// warming (warmup re-charged, like a restart), blades caught mid-drain
// resume admitting. Reports whether a pool was activated.
func (p *pool) activatePool() bool {
	f := p.fleet
	for _, pl := range f.pools {
		if pl.active {
			continue
		}
		revivable := false
		for _, b := range pl.blades {
			if b.health != healthDown {
				revivable = true
				break
			}
		}
		if !revivable {
			continue
		}
		pl.active = true
		f.scaleUps++
		for _, b := range pl.blades {
			switch {
			case b.health == healthParked:
				b.health = healthWarming
			case b.health == healthDraining && b.parkPending:
				// Caught mid-drain with its warmth and queue intact:
				// cancel the park and resume as up (no warmup recharge —
				// the blade never stopped).
				b.parkPending = false
				b.health = healthUp
			case b.health == healthStalled && b.parkPending:
				b.parkPending = false // stall will restore its pre-stall state
			}
		}
		return true
	}
	return false
}

// drainPool removes the highest-index active pool from routing
// membership and drains its blades through the lifecycle machinery:
// each admittable blade flips to draining with the park flag set (it
// serves out its queue, then parks); a stalled blade inherits the park
// flag and enters its drain when the stall ends; fault-draining and
// down blades are left to their own transitions. Reports whether a pool
// was drained.
func (p *pool) drainPool() bool {
	f := p.fleet
	for i := len(f.pools) - 1; i >= 0; i-- {
		pl := f.pools[i]
		if !pl.active {
			continue
		}
		pl.active = false
		f.scaleDowns++
		for _, b := range pl.blades {
			switch {
			case b.health == healthStalled:
				b.parkPending = true
			case b.health.admittable():
				b.health = healthDraining
				b.parkPending = true
				p.maybePark(b)
			}
		}
		return true
	}
	return false
}
