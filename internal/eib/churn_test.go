package eib

import (
	"fmt"
	"math"
	"testing"

	"cellport/internal/sim"
)

// xorshift64* — a tiny deterministic prng so churn traces are reproducible.
type prng uint64

func (r *prng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = prng(x)
	return x * 0x2545F4914F6CDD1D
}

func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// randomFlowSet builds a random active-flow population: a mix of shared-
// bottleneck pulls from memory, disjoint SPE pairs, and loop-backs, so
// traces exercise the fast-path shapes and the mixed shapes that need the
// full waterfill.
func randomFlowSet(r *prng, n int) []*Transfer {
	flows := make([]*Transfer, n)
	for i := range flows {
		var src, dst Port
		switch r.intn(3) {
		case 0: // memory pull — shared bottleneck when it dominates
			src, dst = PortMemory, SPEPort(r.intn(8))
		case 1: // SPE-to-SPE — disjoint or lightly overlapping
			src, dst = SPEPort(r.intn(8)), SPEPort(r.intn(8))
		default:
			src, dst = Port(r.intn(3)), SPEPort(r.intn(8)) // PPE/MEM/IO source
		}
		flows[i] = &Transfer{src: src, dst: dst, remaining: 1}
	}
	return flows
}

func loadsOf(flows []*Transfer) (portLoad map[Port]int, maxLoad int) {
	portLoad = map[Port]int{}
	for _, t := range flows {
		portLoad[t.src]++
		if t.dst != t.src {
			portLoad[t.dst]++
		}
	}
	for _, l := range portLoad {
		if l > maxLoad {
			maxLoad = l
		}
	}
	return portLoad, maxLoad
}

// TestPropFastPathsMatchFullSolver is the ISSUE's rate-for-rate property:
// across randomized churn traces (flows joining and leaving), whenever
// the per-port flow counts admit a closed-form uniform rate, that rate
// must equal the retained full waterfill's allocation exactly — not
// approximately — for every flow.
func TestPropFastPathsMatchFullSolver(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(),
		{PortBandwidth: 25.6e9, TotalBandwidth: 51.2e9},  // tight fabric
		{PortBandwidth: 10e9, TotalBandwidth: 10e9},      // port == fabric ties
		{PortBandwidth: 204.8e9, TotalBandwidth: 25.6e9}, // fabric < port
	}
	for ci, cfg := range cfgs {
		r := prng(0x9E3779B97F4A7C15 + uint64(ci))
		fastHits := 0
		for trace := 0; trace < 50; trace++ {
			flows := randomFlowSet(&r, 1+r.intn(10))
			// Churn: alternate random departures and arrivals so the
			// constraint shape keeps shifting within one trace.
			for step := 0; step < 30; step++ {
				if len(flows) > 0 && r.intn(2) == 0 {
					i := r.intn(len(flows))
					flows = append(flows[:i], flows[i+1:]...)
				} else {
					flows = append(flows, randomFlowSet(&r, 1)...)
				}
				n := len(flows)
				if n == 0 {
					continue
				}
				_, maxLoad := loadsOf(flows)
				uniform, ok := uniformRate(n, maxLoad, cfg)
				full := maxMinRates(flows, cfg)
				if !ok {
					continue
				}
				fastHits++
				for i, rate := range full {
					if rate != uniform {
						t.Fatalf("cfg %d trace %d step %d: flow %d full solver %.17g != fast path %.17g (n=%d maxLoad=%d)",
							ci, trace, step, i, rate, uniform, n, maxLoad)
					}
				}
			}
		}
		if fastHits == 0 {
			t.Fatalf("cfg %d: churn never hit a fast-path shape — property vacuous", ci)
		}
	}
}

// churnOutcome is one simulated churn run's observable behaviour.
type churnOutcome struct {
	completions []sim.Time
	bytesMoved  float64
	events      uint64
}

// runChurn drives one bus through a randomized start/finish interleaving:
// transfers begin at staggered virtual times, so arrivals land while
// earlier transfers are mid-flight and completions reshuffle the
// allocation. The trace is fully determined by the seed.
func runChurn(t *testing.T, seed uint64, forceFull bool) churnOutcome {
	t.Helper()
	r := prng(seed)
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	b.forceFull = forceFull

	n := 12 + r.intn(8)
	out := churnOutcome{completions: make([]sim.Time, n)}
	for i := 0; i < n; i++ {
		i := i
		var src, dst Port
		switch r.intn(3) {
		case 0:
			src, dst = PortMemory, SPEPort(r.intn(8))
		case 1:
			src, dst = SPEPort(r.intn(8)), SPEPort(r.intn(8))
		default:
			src, dst = Port(r.intn(3)), SPEPort(r.intn(8))
		}
		size := int64(r.next()%(1<<26)) + 1
		at := sim.FromSeconds(float64(r.next()%1000) * 1e-4)
		e.Spawn(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			p.Sleep(at)
			start(b, src, dst, size, nil).Wait(p)
			out.completions[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.active) != 0 {
		t.Fatalf("%d transfers still active after quiescence", len(b.active))
	}
	out.bytesMoved = b.BytesMoved()
	out.events = e.EventCount
	return out
}

// TestChurnIncrementalMatchesFullSolver compares the incremental
// allocator against the retained full waterfill over whole randomized
// churn simulations: per-transfer completion times and BytesMoved must
// agree, so the fast paths are behaviourally invisible.
func TestChurnIncrementalMatchesFullSolver(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		inc := runChurn(t, seed, false)
		full := runChurn(t, seed, true)
		for i := range inc.completions {
			if inc.completions[i] != full.completions[i] {
				t.Fatalf("seed %d: transfer %d completed at %v incrementally vs %v with the full solver",
					seed, i, inc.completions[i], full.completions[i])
			}
		}
		if math.Abs(inc.bytesMoved-full.bytesMoved) > 0.5 {
			t.Fatalf("seed %d: BytesMoved %.3f (incremental) vs %.3f (full)",
				seed, inc.bytesMoved, full.bytesMoved)
		}
	}
}

// TestActiveTransfersBookkeeping pins the active-transfer count through
// a start/finish interleaving: it must rise with each start, fall with
// each completion, and the per-port load counts must drain to empty.
func TestActiveTransfersBookkeeping(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, DefaultConfig())

	var observed []int
	snap := func() { observed = append(observed, len(b.active)) }

	e.Spawn("driver", func(p *sim.Proc) {
		snap() // 0
		// Three staggered transfers on the shared memory port: sizes chosen
		// so they finish strictly in reverse start order is impossible —
		// equal shares mean the smallest remaining finishes first.
		t1 := start(b, PortMemory, SPEPort(0), 25_600_000, nil) // 1 ms alone
		snap()                                                  // 1
		t2 := start(b, PortMemory, SPEPort(1), 51_200_000, nil)
		snap() // 2
		t3 := start(b, PortMemory, SPEPort(2), 76_800_000, nil)
		snap() // 3
		t1.Wait(p)
		snap() // 2
		t2.Wait(p)
		snap() // 1
		t3.Wait(p)
		snap() // 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 2, 1, 0}
	if len(observed) != len(want) {
		t.Fatalf("observed %v, want %v", observed, want)
	}
	for i := range want {
		if observed[i] != want[i] {
			t.Fatalf("active-transfer sequence %v, want %v", observed, want)
		}
	}
	if l := loads(b); len(l) != 0 {
		t.Fatalf("port loads did not drain: %v", l)
	}
	if b.Transfers() != 3 {
		t.Fatalf("Transfers = %d, want 3", b.Transfers())
	}
}

// loads returns the ports that still carry active flows, with their
// counts.
func loads(b *Bus) map[Port]int {
	out := map[Port]int{}
	for p, s := range b.ports {
		if s.load != 0 {
			out[Port(p)] = s.load
		}
	}
	return out
}

// TestPortLoadTracksActiveFlows pins the per-port counts that gate the
// fast paths: loop-backs count once, shared endpoints accumulate.
func TestPortLoadTracksActiveFlows(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	e.Spawn("driver", func(p *sim.Proc) {
		a := start(b, PortMemory, SPEPort(0), 1<<20, nil)
		c := start(b, PortMemory, SPEPort(1), 1<<20, nil)
		lb := start(b, SPEPort(2), SPEPort(2), 1<<20, nil) // loop-back
		if got := b.port(PortMemory).load; got != 2 {
			t.Errorf("memory port load = %d, want 2", got)
		}
		if got := b.port(SPEPort(2)).load; got != 1 {
			t.Errorf("loop-back port load = %d, want 1 (counted once)", got)
		}
		a.Wait(p)
		c.Wait(p)
		lb.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if l := loads(b); len(l) != 0 {
		t.Fatalf("port loads did not drain: %v", l)
	}
}
