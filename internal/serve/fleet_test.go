package serve

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"cellport/internal/fault"
	"cellport/internal/sim"
)

// fleetConfig is the acceptance scenario scaled to test size: 4 pools of
// 2 blades under the shared calibration, overloaded, with a diurnal +
// flash-crowd stream and the autoscaler armed.
func fleetConfig(t *testing.T) Config {
	t.Helper()
	cfg := quickConfig()
	cfg.Blades = 2
	cfg.Pools = 4
	cfg.Requests = 96
	cfg.Rate = 1.5
	cfg.Cal = mustCal(t)
	cfg.Load = &RateModel{DiurnalAmp: 0.6, FlashCount: 2, FlashFactor: 3}
	cfg.Autoscale = &Autoscale{}
	return cfg
}

// TestFleetDeterminismMatrix is the tentpole guarantee at fleet scale:
// one fleet run under flash-crowd load, routing, and autoscaling is
// byte-identical across repeated runs and calibration parallelism, and
// its ledger conserves. It runs at the scenario's 4 pools and at 9, the
// smallest fleet whose routing changed when first fit replaced the
// router's vnode ring.
func TestFleetDeterminismMatrix(t *testing.T) {
	for _, pools := range []int{4, 9} {
		base := fleetConfig(t)
		base.Pools = pools
		rep := mustRun(t, base)
		checkLedger(t, rep)
		golden := marshal(t, rep)
		if got := marshal(t, mustRun(t, base)); !bytes.Equal(got, golden) {
			t.Fatalf("%d pools: fleet rerun diverged:\n got %s\nwant %s", pools, got, golden)
		}
		par := base
		par.Parallel = 8
		if got := marshal(t, mustRun(t, par)); !bytes.Equal(got, golden) {
			t.Fatalf("%d pools: -parallel 8 changed the fleet report", pools)
		}
	}
}

// TestFleetLedgerConservation: the six-term ledger balances exactly
// under routing + autoscaling, the per-pool served counts re-sum to the
// fleet total, and every request the router placed is accounted.
func TestFleetLedgerConservation(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		cfg := fleetConfig(t)
		cfg.Seed = seed
		rep := mustRun(t, cfg)
		checkLedger(t, rep)
		if rep.Fleet == nil {
			t.Fatalf("seed %d: fleet run produced no fleet stats", seed)
		}
		if rep.Fleet.Pools != cfg.Pools {
			t.Fatalf("seed %d: fleet stats report %d pools, want %d", seed, rep.Fleet.Pools, cfg.Pools)
		}
		var poolServed int
		for i, ps := range rep.Fleet.PerPool {
			if ps.Pool != i {
				t.Fatalf("seed %d: per-pool merge out of order: index %d holds pool %d", seed, i, ps.Pool)
			}
			if ps.Blades != cfg.Blades {
				t.Fatalf("seed %d: pool %d reports %d blades, want %d", seed, i, ps.Blades, cfg.Blades)
			}
			poolServed += ps.Served
		}
		if poolServed != rep.Served {
			t.Fatalf("seed %d: per-pool served sums to %d, fleet served %d", seed, poolServed, rep.Served)
		}
		if rep.Blades != cfg.Pools*cfg.Blades {
			t.Fatalf("seed %d: fleet report blades %d, want %d", seed, rep.Blades, cfg.Pools*cfg.Blades)
		}
	}
}

// TestFleetAutoscaleDrains: under the diurnal stream's off-peak trough
// the autoscaler must demonstrably drain pools — the observed minimum
// active count drops below the configured fleet size — and scale
// actions are reflected in the stats.
func TestFleetAutoscaleDrains(t *testing.T) {
	cfg := fleetConfig(t)
	rep := mustRun(t, cfg)
	f := rep.Fleet
	if f == nil {
		t.Fatal("fleet run produced no fleet stats")
	}
	if f.ScaleDowns == 0 {
		t.Fatalf("autoscaler never drained a pool: %+v", f)
	}
	if f.ActiveMin >= f.Pools {
		t.Fatalf("active_min %d never dropped below the fleet size %d", f.ActiveMin, f.Pools)
	}
	// The drain must go through the lifecycle machinery: some blade ends
	// the run parked or draining, or was revived through warming.
	saw := false
	for _, bs := range rep.PerBlade {
		if bs.Health == "parked" || bs.Health == "draining" || bs.Health == "warming" {
			saw = true
		}
	}
	if !saw && f.ScaleUps == 0 {
		t.Fatalf("scale-downs fired but no blade shows a lifecycle drain state: %+v", rep.PerBlade)
	}
}

// TestFleetStaticNoAutoscale: without an Autoscale config the fleet is
// static — no scale actions, every pool active throughout.
func TestFleetStaticNoAutoscale(t *testing.T) {
	cfg := fleetConfig(t)
	cfg.Autoscale = nil
	rep := mustRun(t, cfg)
	f := rep.Fleet
	if f == nil {
		t.Fatal("fleet run produced no fleet stats")
	}
	if f.ScaleUps != 0 || f.ScaleDowns != 0 || f.ActiveMin != f.Pools || f.ActiveFinal != f.Pools {
		t.Fatalf("static fleet scaled anyway: %+v", f)
	}
	checkLedger(t, rep)
}

// TestFleetBeatsSinglePool: on the identical arrival stream (offered
// rate pinned in absolute terms), the fleet's goodput under overload
// beats the static single-pool baseline — the router spreads what one
// admission queue would have shed.
func TestFleetBeatsSinglePool(t *testing.T) {
	cal := mustCal(t)
	fleet := fleetConfig(t)
	fleet.Autoscale = nil // static fleet: capacity comparison, not scaling
	// Pin the absolute offered rate at 1.5× the whole fleet's capacity so
	// both runs consume the byte-identical stream.
	offered := 1.5 * cal.perBlade * float64(fleet.Pools*fleet.Blades)
	fleet.OfferedRPS = offered
	fleet.Rate = 0

	single := fleet
	single.Pools = 0
	single.Load = fleet.Load
	fleetRep := mustRun(t, fleet)
	singleRep := mustRun(t, single)

	if fleetRep.OfferedRPS != singleRep.OfferedRPS {
		t.Fatalf("offered rates diverged: fleet %v single %v", fleetRep.OfferedRPS, singleRep.OfferedRPS)
	}
	goodput := func(r *Report) int { return r.Served - r.Late }
	if gf, gs := goodput(fleetRep), goodput(singleRep); gf <= gs {
		t.Fatalf("fleet goodput %d does not beat the single-pool baseline %d (fleet served %d late %d; single served %d late %d)",
			gf, gs, fleetRep.Served, fleetRep.Late, singleRep.Served, singleRep.Late)
	}
	checkLedger(t, fleetRep)
	checkLedger(t, singleRep)
}

// TestFleetArmedUnfiredPlan: a fleet fault plan scheduled entirely past
// the end of the run must leave the report byte-identical to running
// with no plan at all — the PR-3 invariant at fleet scope, now with
// routing and autoscaling in the loop.
func TestFleetArmedUnfiredPlan(t *testing.T) {
	base := fleetConfig(t)
	golden := marshal(t, mustRun(t, base))

	armed := base
	armed.Faults = mustPlan(t, "blade-crash:blade=0,at=1800s;blade-restart:blade=5,at=1900s,drain=1s")
	if got := marshal(t, mustRun(t, armed)); !bytes.Equal(got, golden) {
		t.Fatalf("armed-but-unfired fleet plan changed the report:\n got %s\nwant %s", got, golden)
	}
}

// TestFleetChaos: seeded blade-lifecycle chaos over the routed fleet —
// lifecycle transitions fire and the ledger still conserves.
func TestFleetChaos(t *testing.T) {
	cfg := fleetConfig(t)
	total := cfg.Pools * cfg.Blades
	offered := cfg.Rate * cfg.Cal.perBlade * float64(total)
	span := sim.FromSeconds(float64(cfg.Requests) / offered)
	for _, seed := range []uint64{3, 11} {
		cfg.Faults = fault.SeededFleet(seed, total, span)
		rep := mustRun(t, cfg)
		checkLedger(t, rep)
		if rep.BladeCrashes == 0 || rep.Rerouted == 0 {
			t.Fatalf("seed %d: chaos fired %d crashes and re-routed %d requests", seed, rep.BladeCrashes, rep.Rerouted)
		}
	}
}

// TestFleetRouterStability: with a conclusive estimator the router keeps
// the ledger conserved under skewed load, every pool is routed to, and
// the router places at least every request that is served.
func TestFleetRouterStability(t *testing.T) {
	cfg := fleetConfig(t)
	cfg.Autoscale = nil
	rep := mustRun(t, cfg)
	checkLedger(t, rep)
	var routed int
	for _, ps := range rep.Fleet.PerPool {
		routed += ps.Routed
		if ps.Routed == 0 {
			t.Fatalf("pool %d was never routed to: %+v", ps.Pool, rep.Fleet.PerPool)
		}
	}
	if routed < rep.Served {
		t.Fatalf("router placed %d requests but %d were served", routed, rep.Served)
	}
}

// TestRouterFirstFit: with no estimator override in play (round-robin
// policy, or an inconclusive estimator) routePool returns the
// lowest-index active pool with room, or nil when no active pool has
// any, over fleets of 1 to 12 pools under seeded active, health and
// queue patterns. A pool has room when some admittable blade's queue is
// short of MaxQueue.
func TestRouterFirstFit(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 0x5eed))
	cal := mustCal(t)
	var routed, none int
	for pools := 1; pools <= 12; pools++ {
		cfg := quickConfig().withDefaults()
		cfg.Blades = 2
		cfg.Pools = pools
		cfg.MaxQueue = 2
		p := newPool(cfg, cal, 0)
		for step := 0; step < 200; step++ {
			p.cfg.Policy, p.conclusive = PolicyRoundRobin, true
			if step%2 == 1 {
				p.cfg.Policy, p.conclusive = PolicyEstimator, false
			}
			want := -1
			for _, pl := range p.fleet.pools {
				pl.active = rng.IntN(3) != 0
				room := false
				for _, b := range pl.blades {
					b.health = health(rng.IntN(int(healthParked) + 1))
					n := cfg.MaxQueue
					if rng.IntN(3) == 0 {
						n = rng.IntN(cfg.MaxQueue)
					}
					b.queue = b.queue[:0]
					for i := 0; i < n; i++ {
						b.queue = append(b.queue, Request{ID: -1, Deadline: sim.Never})
					}
					room = room || b.health.admittable() && n < cfg.MaxQueue
				}
				if want < 0 && pl.active && room {
					want = pl.id
				}
			}
			r := Request{ID: step, Tall: step%3 == 0, Deadline: sim.Never}
			if got := shardID(p.routePool(r)); got != want {
				t.Fatalf("%d pools, step %d: routePool gave pool %d, want %d", pools, step, got, want)
			}
			if want < 0 {
				none++
			} else {
				routed++
			}
		}
		if p.fleet.overrides != 0 {
			t.Fatalf("%d pools: %d overrides with no conclusive estimator", pools, p.fleet.overrides)
		}
	}
	if routed == 0 || none == 0 {
		t.Fatalf("patterns reached %d routed and %d unroutable requests; want both", routed, none)
	}
}

// FuzzFleetLedger drives seeded routing + autoscale + chaos through
// arbitrary (seed, shape) corners and checks the two invariants that
// must never break: exact six-term ledger conservation (with exactly one
// terminal outcome per request, which Run checks), and a byte-identical
// report when the same config runs again.
func FuzzFleetLedger(f *testing.F) {
	f.Add(uint64(7), uint64(0), uint8(4), false)
	f.Add(uint64(1), uint64(3), uint8(2), true)
	f.Add(uint64(42), uint64(9), uint8(6), true)
	cal, err := sharedCal()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed, faultSeed uint64, pools uint8, autoscale bool) {
		cfg := quickConfig()
		cfg.Blades = 2
		cfg.Pools = 1 + int(pools%6)
		cfg.Requests = 48
		cfg.Rate = 1.5
		cfg.Seed = seed
		cfg.Cal = cal
		cfg.Load = &RateModel{DiurnalAmp: 0.5, FlashCount: 1 + int(seed%3), FlashFactor: 2.5}
		if autoscale {
			cfg.Autoscale = &Autoscale{}
		}
		total := cfg.Pools * cfg.Blades
		offered := cfg.Rate * cal.perBlade * float64(total)
		span := sim.FromSeconds(float64(cfg.Requests) / offered)
		if faultSeed != 0 {
			cfg.Faults = fault.SeededFleet(faultSeed, total, span)
		}
		first, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkLedger(t, first)
		again, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, first), marshal(t, again)) {
			t.Fatalf("fleet run not reproducible (seed=%d faultSeed=%d pools=%d autoscale=%v)",
				seed, faultSeed, cfg.Pools, autoscale)
		}
	})
}
