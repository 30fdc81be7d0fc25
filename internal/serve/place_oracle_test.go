package serve

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"cellport/internal/sim"
)

// sortPlacer is the admission and routing code place and routePool
// replaced, kept as their oracle: placeOrderIn scores every admittable
// blade and stable-sorts them, admitInto takes the first blade of that
// order with queue room, and routePool scans each pool's blades up to
// three times per request. The bodies are the replaced code with only
// the scratch buffers moved from the pool onto this type and the
// router's vnode ring walk replaced by the first-fit scan it amounted
// to at up to eight pools.
type sortPlacer struct {
	p        *pool
	ordBuf   []*blade
	scoreBuf []sim.Duration
	idxBuf   []int
}

func newSortPlacer(p *pool) *sortPlacer {
	n := len(p.blades)
	return &sortPlacer{
		p:        p,
		ordBuf:   make([]*blade, n),
		scoreBuf: make([]sim.Duration, n),
		idxBuf:   make([]int, n),
	}
}

func (o *sortPlacer) placeOrderIn(r Request, blades []*blade, rr *int) []*blade {
	p := o.p
	n := len(blades)
	rot := func() []*blade {
		out := o.ordBuf[:0]
		for i := 0; i < n; i++ {
			if b := blades[(*rr+i)%n]; b.health.admittable() {
				out = append(out, b)
			}
		}
		*rr = (*rr + 1) % n
		return out
	}
	if p.cfg.Policy == PolicyRoundRobin || !p.conclusive {
		return rot()
	}
	scores := o.scoreBuf[:n]
	idx := o.idxBuf[:0]
	for i, b := range blades {
		if !b.health.admittable() {
			continue
		}
		scores[i] = p.bladeScore(b)
		idx = append(idx, i)
	}
	if len(idx) == 0 {
		return o.ordBuf[:0]
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
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(scores[a], scores[b]) })
	out := o.ordBuf[:len(idx)]
	for i, j := range idx {
		out[i] = blades[j]
	}
	return out
}

func (o *sortPlacer) admitInto(r Request, order []*blade) {
	p := o.p
	for _, b := range order {
		if len(b.queue) < p.cfg.MaxQueue {
			b.queue = append(b.queue, r)
			b.backlog += p.estOne(r)
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

func (o *sortPlacer) admit(r Request) {
	p := o.p
	if p.fleet != nil {
		o.admitFleet(r)
		return
	}
	o.admitInto(r, o.placeOrderIn(r, p.blades, &p.rr))
}

func (o *sortPlacer) admitFleet(r Request) {
	p := o.p
	pl := o.routePool(r)
	if pl == nil {
		p.finish(r, outShedGlobal, nil)
		return
	}
	pl.routed++
	o.admitInto(r, o.placeOrderIn(r, pl.blades, &pl.rr))
}

func (o *sortPlacer) poolHasRoom(pl *poolShard) bool {
	p := o.p
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

func (o *sortPlacer) routePool(r Request) *poolShard {
	p := o.p
	f := p.fleet
	var first *poolShard
	for _, pl := range f.pools {
		if o.poolHasRoom(pl) {
			first = pl
			break
		}
	}
	if first == nil {
		return nil
	}
	if p.cfg.Policy != PolicyEstimator || !p.conclusive {
		return first
	}
	var best *poolShard
	var bestFrontier sim.Duration
	for _, pl := range f.pools {
		if !o.poolHasRoom(pl) {
			continue
		}
		if s, ok := p.poolFrontier(pl); ok && (best == nil || s < bestFrontier) {
			best, bestFrontier = pl, s
		}
	}
	if best == nil || best == first {
		return first
	}
	firstFrontier, ok := p.poolFrontier(first)
	if !ok {
		return first
	}
	if firstFrontier-bestFrontier > p.estOne(r)/2 {
		f.overrides++
		return best
	}
	return first
}

// randomPoolState builds a pool in a seeded random admission state:
// either policy, a conclusive or inconclusive estimator, one pool or a
// fleet with some pools inactive, and per blade every health state,
// queues from empty to full, busy or idle, warm or cold. Remaining work
// and backlogs are drawn from a few half-multiples of the two
// geometries' estimates, so score ties are common and frontier gaps of
// exactly the override threshold occur. The same seed builds the same
// state, so the oracle and the code under test each get their own copy.
func randomPoolState(t *testing.T, seed uint64) *pool {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	cfg := quickConfig().withDefaults()
	cfg.Blades = 1 + rng.IntN(5)
	cfg.MaxQueue = 1 + rng.IntN(3)
	cfg.Requests = 16
	if rng.IntN(2) == 0 {
		cfg.Pools = 2 + rng.IntN(3)
	}
	cfg.Policy = PolicyEstimator
	if rng.IntN(4) == 0 {
		cfg.Policy = PolicyRoundRobin
	}
	p := newPool(cfg, mustCal(t), 0)
	p.conclusive = rng.IntN(4) != 0
	p.now = sim.Time(1 + rng.IntN(1000))
	// In a third of the states every blade copies blade 0, so the
	// estimator's whole-set tie (its rotation fallback) occurs often.
	uniform := rng.IntN(3) == 0
	for _, b := range p.blades {
		if !uniform || b.id == 0 {
			b.health = health(rng.IntN(int(healthParked) + 1))
			if rng.IntN(2) == 0 {
				b.health = healthUp
			}
			b.warm = rng.IntN(3) != 0
			b.busy = rng.IntN(2) == 0
			if b.busy {
				b.done = p.now.Add(sim.Duration(1+rng.IntN(4)) * p.estOnes[rng.IntN(2)] / 2)
			}
			n := rng.IntN(cfg.MaxQueue + 1)
			if rng.IntN(3) == 0 {
				n = cfg.MaxQueue
			}
			b.queue = b.queue[:0]
			b.backlog = 0
			for i := 0; i < n; i++ {
				r := Request{ID: -1, Tall: rng.IntN(2) == 0, Deadline: sim.Never}
				b.queue = append(b.queue, r)
				b.backlog += p.estOne(r)
			}
		} else {
			b0 := p.blades[0]
			b.health, b.warm, b.busy, b.done = b0.health, b0.warm, b0.busy, b0.done
			b.queue = append(b.queue[:0], b0.queue...)
			b.backlog = b0.backlog
		}
	}
	p.rr = rng.IntN(len(p.blades))
	if f := p.fleet; f != nil {
		for _, pl := range f.pools {
			pl.active = rng.IntN(4) != 0
			pl.rr = rng.IntN(len(pl.blades))
		}
	}
	return p
}

// poolDigest renders everything admission can change: each blade's
// queue, backlog and dispatch state, every outcome, the rotations, and
// the fallback, override and routed counters.
func poolDigest(p *pool) string {
	s := fmt.Sprintf("rr=%d fallbacks=%d\n", p.rr, p.placeFallbacks)
	for _, b := range p.blades {
		s += fmt.Sprintf("blade%d q=%d backlog=%v busy=%v done=%v warm=%v dispatches=%d\n",
			b.id, len(b.queue), b.backlog, b.busy, b.done, b.warm, b.dispatches)
	}
	if f := p.fleet; f != nil {
		s += fmt.Sprintf("overrides=%d\n", f.overrides)
		for _, pl := range f.pools {
			s += fmt.Sprintf("pool%d rr=%d routed=%d\n", pl.id, pl.rr, pl.routed)
		}
	}
	for i, o := range p.outcomes {
		if o.finishes > 0 {
			s += fmt.Sprintf("req%d %v on blade %d\n", i, o.state, o.blade)
		}
	}
	return s
}

// shardID names a routing result: its pool index, or -1 for none.
func shardID(pl *poolShard) int {
	if pl == nil {
		return -1
	}
	return pl.id
}

// TestPlaceMatchesSortOracle admits a few requests into each of many
// seeded random pool states twice — through place and routePool, and
// through the sort-based oracle — and requires the same chosen blade,
// shed blade, rotation, fallback count, pool and override count after
// every admission. It also requires the states to reach each branch the
// two codes could disagree on.
func TestPlaceMatchesSortOracle(t *testing.T) {
	var reached struct {
		fallback, rejectOnBlade, rejectNoBlade, global, override, tie, skipFull int
	}
	for seed := uint64(0); seed < 3000; seed++ {
		want, got := randomPoolState(t, seed), randomPoolState(t, seed)
		oracle := newSortPlacer(want)
		if d1, d2 := poolDigest(want), poolDigest(got); d1 != d2 {
			t.Fatalf("seed %d: states differ before admission:\n%s\n%s", seed, d1, d2)
		}
		for id := 0; id < 6; id++ {
			r := Request{ID: id, Arrival: want.now, Tall: id%3 == 0, Deadline: sim.Never}
			noteTies(want, &reached.tie, &reached.skipFull)
			fallbacks, overrides := want.placeFallbacks, 0
			if want.fleet != nil {
				overrides = want.fleet.overrides
			}
			oracle.admit(r)
			got.admit(r)
			if d1, d2 := poolDigest(want), poolDigest(got); d1 != d2 {
				t.Fatalf("seed %d, request %d: oracle\n%s\nplace\n%s", seed, id, d1, d2)
			}
			if want.placeFallbacks > fallbacks {
				reached.fallback++
			}
			if want.fleet != nil && want.fleet.overrides > overrides {
				reached.override++
			}
			switch o := want.outcomes[id]; {
			case o.finishes == 0:
			case o.state == outShedGlobal:
				reached.global++
			case o.state == outShedRejected && o.blade >= 0:
				reached.rejectOnBlade++
			case o.state == outShedRejected:
				reached.rejectNoBlade++
			}
		}
	}
	t.Logf("branches reached: %+v", reached)
	for name, n := range map[string]int{
		"estimator fallback": reached.fallback, "rejection charged to a blade": reached.rejectOnBlade,
		"rejection with no admittable blade": reached.rejectNoBlade, "global shed": reached.global,
		"router override": reached.override, "tie at the least score": reached.tie,
		"least-score blade full": reached.skipFull,
	} {
		if n == 0 {
			t.Errorf("no state reached: %s", name)
		}
	}
}

// noteTies counts, for an estimator placement that will not fall back,
// candidate sets where two blades with room share the least score (the
// index tie-break decides) and sets whose least-score blade is full (the
// shed blade and the chosen blade differ).
func noteTies(p *pool, tie, skipFull *int) {
	if p.cfg.Policy != PolicyEstimator || !p.conclusive {
		return
	}
	sets := [][]*blade{p.blades}
	if p.fleet != nil {
		sets = sets[:0]
		for _, pl := range p.fleet.pools {
			sets = append(sets, pl.blades)
		}
	}
	for _, blades := range sets {
		var scores, room []sim.Duration
		for _, b := range blades {
			if b.health.admittable() {
				s := p.bladeScore(b)
				scores = append(scores, s)
				if len(b.queue) < p.cfg.MaxQueue {
					room = append(room, s)
				}
			}
		}
		if len(scores) == 0 || slices.Min(scores) == slices.Max(scores) {
			continue
		}
		if len(room) > 0 && slices.Min(room) > slices.Min(scores) {
			*skipFull++
		}
		if len(room) > 1 {
			least := slices.Min(room)
			n := 0
			for _, s := range room {
				if s == least {
					n++
				}
			}
			if n > 1 {
				*tie++
			}
		}
	}
}
