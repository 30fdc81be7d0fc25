package serve

import "cellport/internal/sim"

// The fleet router: first fit over the active pools, with an
// estimator-aware override. A request goes to the lowest-index active
// pool with room; the override is the paper's Eqs. 1-3 "is this worth
// it" check promoted to fleet scope — when that pool's estimated finish
// frontier trails the best pool's by more than half a request's service
// estimate, the migration is worth it and the request follows the
// estimator instead.

// poolFrontier is the pool's earliest estimated finish across its
// admittable blades with queue room — what a request routed there now
// would be waiting behind.
func (p *pool) poolFrontier(pl *poolShard) (sim.Duration, bool) {
	var best sim.Duration
	found := false
	for _, b := range pl.blades {
		if !b.health.admittable() || len(b.queue) >= p.cfg.MaxQueue {
			continue
		}
		if s := p.bladeScore(b); !found || s < best {
			best, found = s, true
		}
	}
	return best, found
}

// routePool picks the pool for one request: the first active pool with
// room, overridden toward the earliest-frontier pool (the lowest index
// among equals) when the estimator is conclusive and the gap exceeds
// half the request's own service estimate (hysteresis — ties and small
// imbalances stay on the first fit, keeping routing stable). One pass
// computes every active pool's frontier and room; a pool has room when
// some admittable blade has queue space. Returns nil under global
// backpressure: no active pool has room.
func (p *pool) routePool(r Request) *poolShard {
	var first, best *poolShard
	var firstFrontier, bestFrontier sim.Duration
	for _, pl := range p.fleet.pools {
		if !pl.active {
			continue
		}
		s, room := p.poolFrontier(pl)
		if !room {
			continue
		}
		if first == nil {
			first, firstFrontier = pl, s
		}
		if best == nil || s < bestFrontier {
			best, bestFrontier = pl, s
		}
	}
	if first == nil {
		return nil
	}
	if best == first || p.cfg.Policy != PolicyEstimator || !p.conclusive {
		return first
	}
	if firstFrontier-bestFrontier > p.estOne(r)/2 {
		p.fleet.overrides++
		return best
	}
	return first
}
