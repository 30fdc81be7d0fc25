package serve

// Fleet mode (DESIGN.md §13): the run's blades are partitioned into
// Config.Pools independent pools of Config.Blades blades each. Each pool
// keeps its own admission rotation and queue set; the calibration table
// and the event loop are shared across the fleet. A router places each
// arrival on a pool by consistent hashing of its geometry key, with an
// estimator-aware override toward the pool with the earliest estimated
// finish frontier; when no active pool has room the request is shed
// globally (shed_global — the fleet ledger's sixth term). A
// deterministic autoscaler (autoscale.go) activates and drains pools
// from virtual-time load signals, driving drains through the blade
// lifecycle machinery.
//
// Routing, scaling, and the ring are pure functions of the virtual
// history, so fleet runs stay byte-identical at any -parallel.

// poolShard is one pool of the fleet: a contiguous pool-major slice of
// the run's blades plus the pool-local admission rotation.
type poolShard struct {
	id     int
	blades []*blade
	rr     int
	active bool
	routed int // arrivals and re-admissions the router sent here
}

// fleetState is the router + autoscaler layer over the pool's blades.
type fleetState struct {
	pools  []*poolShard
	ring   []ringEntry
	scaler *autoscaler

	visited []bool // ring-walk scratch, one slot per pool

	overrides  int // estimator frontier overrides of the hash placement
	scaleUps   int
	scaleDowns int
	activeMin  int // fewest simultaneously active pools observed
}

func newFleet(p *pool) *fleetState {
	per := p.cfg.Blades
	n := p.cfg.Pools
	f := &fleetState{
		pools:     make([]*poolShard, n),
		visited:   make([]bool, n),
		activeMin: n,
	}
	for i := range f.pools {
		f.pools[i] = &poolShard{
			id:     i,
			blades: p.blades[i*per : (i+1)*per],
			active: true,
		}
	}
	f.rebuildRing()
	return f
}

// activeCount reports how many pools are currently active.
func (f *fleetState) activeCount() int {
	n := 0
	for _, pl := range f.pools {
		if pl.active {
			n++
		}
	}
	return n
}

// poolHasRoom reports whether pl can take one more request: it is active
// and some admittable blade has queue space. Router candidacy predicate.
func (p *pool) poolHasRoom(pl *poolShard) bool {
	if !pl.active {
		return false
	}
	for _, b := range pl.blades {
		if b.health.admittable() && len(b.queue) < p.cfg.MaxQueue {
			return true
		}
	}
	return false
}

// admitFleet is fleet-mode admission: route to a pool, then place within
// it through the normal per-pool policy order. The router guarantees the
// chosen pool has room, so the inner admission cannot fail; its
// defensive shed keeps the ledger conserved even if that invariant ever
// broke.
func (p *pool) admitFleet(r Request) {
	pl := p.routePool(r)
	if pl == nil {
		p.finish(r, outShedGlobal, nil)
		return
	}
	pl.routed++
	p.admitInto(r, p.placeOrderIn(r, pl.blades, &pl.rr))
}
