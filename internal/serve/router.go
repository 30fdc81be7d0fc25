package serve

import (
	"sort"

	"cellport/internal/sim"
)

// The fleet router: consistent hashing of request geometry over a vnode
// ring of the active pools, with an estimator-aware override. Hashing
// gives stable, membership-tolerant placement (a pool draining or
// activating only moves the keys that hashed to it); the override is the
// paper's Eqs. 1-3 "is this worth it" check promoted to fleet scope —
// when the hashed pool's estimated finish frontier trails the best
// pool's by more than half a request's service estimate, the migration
// is worth it and the request follows the estimator instead.

// vnodesPerPool spreads each pool over the ring so membership changes
// rebalance smoothly; 16 keeps the ring tiny while bounding per-pool
// load skew.
const vnodesPerPool = 16

// ringEntry is one virtual node: a pool replica at a hashed position.
type ringEntry struct {
	hash uint64
	pool int
}

// mix64 is the splitmix64 finalizer: the load generator's PRNG output
// step, and the router's hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// requestKey hashes the request's routing geometry: its identity and
// frame class. Every re-admission of the same request hashes to the same
// ring position, so retries probe the same pool first unless membership
// or load moved underneath them.
func requestKey(r Request) uint64 {
	k := uint64(r.ID) << 1
	if r.Tall {
		k |= 1
	}
	return mix64(k + 0x9e3779b97f4a7c15)
}

// rebuildRing rebuilds the vnode ring from the active pools. Called only
// on membership changes (activate/drain), never per request; sorted by
// (hash, pool) for a total deterministic order.
func (f *fleetState) rebuildRing() {
	f.ring = f.ring[:0]
	for _, pl := range f.pools {
		if !pl.active {
			continue
		}
		for v := 0; v < vnodesPerPool; v++ {
			h := mix64(uint64(pl.id)<<32 | uint64(v) | 0x517cc1b727220a95)
			f.ring = append(f.ring, ringEntry{hash: h, pool: pl.id})
		}
	}
	sort.Slice(f.ring, func(a, b int) bool {
		if f.ring[a].hash != f.ring[b].hash {
			return f.ring[a].hash < f.ring[b].hash
		}
		return f.ring[a].pool < f.ring[b].pool
	})
}

// lookup walks the ring clockwise from key and returns the first pool
// with room (routePool sets poolShard.room), or nil when no pool on the
// ring has any. The walk starts at the first vnode whose hash is at
// least key, wrapping past the end of the ring to its start.
func (f *fleetState) lookup(key uint64) *poolShard {
	n := len(f.ring)
	lo, hi := 0, n
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); f.ring[h].hash < key {
			lo = h + 1
		} else {
			hi = h
		}
	}
	for i, j := 0, lo; i < n; i, j = i+1, j+1 {
		if j == n {
			j = 0
		}
		if pl := f.pools[f.ring[j].pool]; pl.room {
			return pl
		}
	}
	return nil
}

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

// routePool picks the pool for one request: the consistent-hash owner
// with room, overridden toward the earliest-frontier pool when the
// estimator is conclusive and the gap exceeds half the request's own
// service estimate (hysteresis — ties and small imbalances stay on the
// hash placement, keeping routing stable). One pass computes every
// pool's frontier and room; a pool has room when it is active and some
// admittable blade has queue space. Returns nil under global
// backpressure: no active pool has room.
func (p *pool) routePool(r Request) *poolShard {
	f := p.fleet
	var best *poolShard
	for _, pl := range f.pools {
		pl.frontier, pl.room = 0, false
		if pl.active {
			pl.frontier, pl.room = p.poolFrontier(pl)
		}
		if pl.room && (best == nil || pl.frontier < best.frontier) {
			best = pl
		}
	}
	if best == nil {
		// No pool has room, so the ring walk would find none either.
		return nil
	}
	hashed := f.lookup(requestKey(r))
	if hashed == nil || best == hashed || p.cfg.Policy != PolicyEstimator || !p.conclusive {
		return hashed
	}
	if hashed.frontier-best.frontier > p.estOne(r)/2 {
		f.overrides++
		return best
	}
	return hashed
}
