// Package eib models the Cell's Element Interconnect Bus as a fluid
// (progressive-filling) bandwidth-sharing network. Each bus element — the
// PPE, the eight SPEs, the memory interface controller and the I/O
// interface — owns a port with 25.6 GB/s of bandwidth in each direction,
// and the ring fabric itself sustains an aggregate of 204.8 GB/s (§2,
// [12]). A transfer consumes bandwidth on its source port, its destination
// port, and the shared fabric; concurrent transfers receive the max-min
// fair allocation over those capacities.
//
// The fluid model is event-driven: whenever a transfer starts or finishes,
// remaining byte counts are advanced at the old rates, rates are
// recomputed, and the next completion is rescheduled. The recomputation is
// incremental: per-port flow counts classify the constraint shape, and the
// common shapes (a single flow; fully disjoint flows; all flows through
// one bottleneck port) get closed-form uniform rates that are float-for-
// float identical to the full waterfill, which runs only for mixed shapes.
// Transfers whose rate did not change keep their scheduled completion
// timer. Byte conservation, capacity respect, and incremental-vs-full
// equivalence are property-tested.
package eib

import (
	"fmt"
	"math"

	"cellport/internal/sim"
)

// Port identifies a bus element.
type Port int

// Bus element ports. SPE ports are SPE0 + i.
const (
	PortPPE Port = iota
	PortMemory
	PortIO
	PortSPE0 // SPE n is PortSPE0 + n
)

// SPEPort returns the port of SPE n.
func SPEPort(n int) Port { return PortSPE0 + Port(n) }

func (p Port) String() string {
	switch p {
	case PortPPE:
		return "PPE"
	case PortMemory:
		return "MEM"
	case PortIO:
		return "IO"
	default:
		return fmt.Sprintf("SPE%d", int(p-PortSPE0))
	}
}

// Config sets the bus capacities in bytes per second.
type Config struct {
	PortBandwidth  float64 // per-port, per-direction
	TotalBandwidth float64 // fabric aggregate
}

// DefaultConfig returns the published Cell B.E. capacities.
func DefaultConfig() Config {
	return Config{PortBandwidth: 25.6e9, TotalBandwidth: 204.8e9}
}

// Bus is the shared interconnect. All methods must be called from within
// the owning simulation (engine callbacks or processes).
type Bus struct {
	engine *sim.Engine
	cfg    Config

	// active holds in-flight transfers in a deterministic order (insertion
	// order with swap-removal); each transfer records its slot in idx.
	active []*Transfer
	// portLoad counts the active flows crossing each port (a loop-back
	// transfer counts once). The counts classify the constraint shape so
	// reallocate can skip the full waterfill for uniform shapes.
	portLoad   map[Port]int
	lastUpdate sim.Time

	// forceFull disables the closed-form fast paths so tests can compare
	// the incremental allocator against the retained full solver.
	forceFull bool

	// Stats
	bytesMoved float64
	transfers  uint64
	// portBytes accumulates delivered bytes per crossed port (a loop-back
	// transfer is credited once) — the per-port bandwidth-share numbers.
	portBytes map[Port]float64
	// portFlows counts transfers started per crossed port.
	portFlows map[Port]uint64
	// Reallocation counters: every reallocate() call, split by whether the
	// closed-form uniform rate applied or the full waterfill ran.
	reallocs    uint64
	reallocFast uint64
	reallocFull uint64
}

// Transfer is one in-flight bulk data movement. It reports completion
// only through its onDone callback.
type Transfer struct {
	src, dst  Port
	remaining float64
	rate      float64 // bytes/s under the current allocation
	idx       int     // slot in bus.active
	finished  bool
	timer     sim.Timer // pending completion; the zero Timer when none
	fire      func()    // t.onTimer, bound once so re-arming allocates nothing
	bus       *Bus
	onDone    func()
}

// New creates a bus on the given engine.
func New(e *sim.Engine, cfg Config) *Bus {
	if cfg.PortBandwidth <= 0 || cfg.TotalBandwidth <= 0 {
		panic("eib: non-positive bandwidth")
	}
	return &Bus{
		engine: e, cfg: cfg,
		portLoad:  make(map[Port]int),
		portBytes: make(map[Port]float64),
		portFlows: make(map[Port]uint64),
	}
}

// Start begins moving size bytes from src to dst and returns the transfer
// handle. onDone, if non-nil, runs at completion time. Zero-size transfers
// complete immediately, inside Start.
func (b *Bus) Start(src, dst Port, size int64, onDone func()) *Transfer {
	t := &Transfer{src: src, dst: dst, remaining: float64(size), bus: b, onDone: onDone}
	b.transfers++
	if size <= 0 {
		t.complete()
		return t
	}
	t.fire = t.onTimer
	b.advance()
	b.addActive(t)
	b.reallocate()
	return t
}

// Abort tears down an in-flight transfer: it stops consuming bandwidth
// and its completion callback never runs. Aborting a finished transfer is
// a no-op.
func (t *Transfer) Abort() {
	if t.finished {
		return
	}
	b := t.bus
	b.advance()
	t.timer.Cancel()
	b.removeActive(t)
	t.finished = true // deliberately skips onDone: the data never arrived
	b.reallocate()
}

func (t *Transfer) complete() {
	t.finished = true
	if t.onDone != nil {
		t.onDone()
	}
}

func (b *Bus) addActive(t *Transfer) {
	t.idx = len(b.active)
	b.active = append(b.active, t)
	b.portLoad[t.src]++
	b.portFlows[t.src]++
	if t.dst != t.src {
		b.portLoad[t.dst]++
		b.portFlows[t.dst]++
	}
}

func (b *Bus) removeActive(t *Transfer) {
	last := len(b.active) - 1
	b.active[t.idx] = b.active[last]
	b.active[t.idx].idx = t.idx
	b.active[last] = nil
	b.active = b.active[:last]
	b.decLoad(t.src)
	if t.dst != t.src {
		b.decLoad(t.dst)
	}
}

func (b *Bus) decLoad(p Port) {
	if b.portLoad[p]--; b.portLoad[p] == 0 {
		delete(b.portLoad, p)
	}
}

// advance applies the current rates over the time elapsed since the last
// recomputation.
func (b *Bus) advance() {
	now := b.engine.Now()
	dt := now.Sub(b.lastUpdate).Seconds()
	b.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, t := range b.active {
		moved := t.rate * dt
		if moved > t.remaining {
			moved = t.remaining
		}
		t.remaining -= moved
		b.bytesMoved += moved
		b.creditPorts(t, moved)
	}
}

// creditPorts attributes moved bytes to the ports a transfer crosses.
func (b *Bus) creditPorts(t *Transfer, moved float64) {
	b.portBytes[t.src] += moved
	if t.dst != t.src {
		b.portBytes[t.dst] += moved
	}
}

// reallocate computes the max-min fair rate for every active transfer and
// reschedules the completion timers of transfers whose rate changed. The
// per-port flow counts select a closed-form uniform allocation when the
// constraint shape admits one; mixed shapes fall back to the retained
// full waterfill.
func (b *Bus) reallocate() {
	n := len(b.active)
	if n == 0 {
		return
	}
	maxLoad := 0
	for _, l := range b.portLoad {
		if l > maxLoad {
			maxLoad = l
		}
	}
	b.reallocs++
	if rate, ok := uniformRate(n, maxLoad, b.cfg); ok && !b.forceFull {
		b.reallocFast++
		for _, t := range b.active {
			t.setRate(rate)
		}
		return
	}
	// No port run reaches this fallback: every MFC transfer crosses
	// PortMemory, so some port carries every flow and the shared-
	// bottleneck closed form always applies (marvel's
	// TestPortedMatchesReferenceExactly pins it). The waterfill stays for
	// mixed flow sets with no port common to all: perfbench's eib.Bus
	// churn row starts SPE↔SPE and PPE/IO→SPE transfers, and
	// churn_test.go checks the closed forms against it.
	b.reallocFull++
	rates := maxMinRates(b.active, b.cfg)
	for i, t := range b.active {
		t.setRate(rates[i])
	}
}

// uniformRate reports whether n flows with the given maximum per-port
// flow count admit a closed-form uniform max-min allocation, and the
// rate if so. The three shapes cover a lone transfer, fully disjoint
// flows (every port crossed by at most one flow), and a single shared
// bottleneck (some port crossed by every flow — its fair share P/n is
// the minimum over all port shares, so it or the fabric is the tight
// resource and every flow freezes at the same rate). The expressions
// reproduce the waterfill's arithmetic exactly: cap/float64(count) with
// the same operands, so rates are float-for-float identical to the full
// solver's.
func uniformRate(n, maxLoad int, cfg Config) (float64, bool) {
	fn := float64(n)
	switch {
	case n == 1:
		return math.Min(cfg.PortBandwidth, cfg.TotalBandwidth), true
	case maxLoad == 1:
		return math.Min(cfg.PortBandwidth, cfg.TotalBandwidth/fn), true
	case maxLoad == n:
		return math.Min(cfg.PortBandwidth/fn, cfg.TotalBandwidth/fn), true
	}
	return 0, false
}

// maxMinRates is the full progressive-filling solver: water-filling over
// the constraining resources — each crossed port (a transfer loads both
// endpoints; a loop-back transfer loads its port once) and the fabric
// aggregate. It is a pure function of the flow order, with resources
// enumerated deterministically (fabric first, then ports in first-use
// order).
func maxMinRates(flows []*Transfer, cfg Config) []float64 {
	type resource struct {
		cap   float64
		flows []int
	}
	res := []*resource{{cap: cfg.TotalBandwidth}}
	portIdx := make(map[Port]int)
	addFlow := func(p Port, i int) {
		j, ok := portIdx[p]
		if !ok {
			j = len(res)
			portIdx[p] = j
			res = append(res, &resource{cap: cfg.PortBandwidth})
		}
		res[j].flows = append(res[j].flows, i)
	}
	for i, t := range flows {
		res[0].flows = append(res[0].flows, i)
		addFlow(t.src, i)
		if t.dst != t.src {
			addFlow(t.dst, i)
		}
	}

	rates := make([]float64, len(flows))
	frozenIn := make([]int, len(flows)) // round each flow froze in, -1 if free
	for i := range frozenIn {
		frozenIn[i] = -1
	}
	remaining := len(flows)
	for round := 0; remaining > 0; round++ {
		// Find the most constrained resource among those with free flows.
		var tight *resource
		share := math.Inf(1)
		for _, r := range res {
			free := 0
			for _, f := range r.flows {
				if frozenIn[f] < 0 {
					free++
				}
			}
			if free == 0 {
				continue
			}
			if s := r.cap / float64(free); s < share {
				share = s
				tight = r
			}
		}
		if tight == nil {
			break
		}
		// Freeze the tight resource's free flows at the fair share and
		// charge every resource they traverse.
		for _, f := range tight.flows {
			if frozenIn[f] < 0 {
				frozenIn[f] = round
				rates[f] = share
				remaining--
			}
		}
		for _, r := range res {
			for _, f := range r.flows {
				if frozenIn[f] == round {
					r.cap -= share
				}
			}
			if r.cap < 0 {
				r.cap = 0
			}
		}
	}
	return rates
}

// setRate installs a transfer's new allocation. When the rate is
// unchanged and a completion timer is pending, the timer stays: advance()
// has just brought remaining up to date at this same rate, so the
// scheduled ETA is still the completion time (and keeping the original
// timer avoids re-deriving it through another division).
func (t *Transfer) setRate(rate float64) {
	if t.rate == rate && t.timer != (sim.Timer{}) {
		return
	}
	t.rate = rate
	t.reschedule()
}

func (t *Transfer) reschedule() {
	t.timer.Cancel()
	t.timer = sim.Timer{}
	if t.rate <= 0 {
		return // starved; will be rescheduled at the next reallocation
	}
	e := t.bus.engine
	t.timer = e.At(e.Now().Add(sim.FromSeconds(t.remaining/t.rate)), t.fire)
}

// onTimer runs at the predicted completion time.
func (t *Transfer) onTimer() {
	b := t.bus
	t.timer = sim.Timer{}
	b.advance()
	// Guard against float residue: treat sub-byte remainders as done.
	if t.remaining > 0.5 {
		t.reschedule()
		return
	}
	b.bytesMoved += t.remaining
	b.creditPorts(t, t.remaining)
	t.remaining = 0
	b.removeActive(t)
	t.complete()
	b.reallocate()
}

// BytesMoved reports total bytes delivered so far.
func (b *Bus) BytesMoved() float64 { return b.bytesMoved }

// Transfers reports the cumulative number of transfers started.
func (b *Bus) Transfers() uint64 { return b.transfers }

// PortBytes returns a copy of the delivered-bytes-per-port accounting.
func (b *Bus) PortBytes() map[Port]float64 {
	out := make(map[Port]float64, len(b.portBytes))
	for p, v := range b.portBytes {
		out[p] = v
	}
	return out
}

// PortFlows returns a copy of the transfers-started-per-port counts.
func (b *Bus) PortFlows() map[Port]uint64 {
	out := make(map[Port]uint64, len(b.portFlows))
	for p, v := range b.portFlows {
		out[p] = v
	}
	return out
}

// Reallocs reports rate-recomputation counts: total calls, closed-form
// fast-path hits, and full waterfill runs.
func (b *Bus) Reallocs() (total, fast, full uint64) {
	return b.reallocs, b.reallocFast, b.reallocFull
}
