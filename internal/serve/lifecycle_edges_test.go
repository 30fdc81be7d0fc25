package serve

import (
	"testing"

	"cellport/internal/sim"
)

// The transition-edge audit (DESIGN.md §12/§13): every overlapping-plan
// corner of the health state machine is pinned table-driven, directly
// against applyFault on a quiescent pool. What must never happen:
// a restart fire claiming a drain it did not start (double warmup
// recharge on a blade that never restarted), a no-op transition moving
// an in-flight completion, or a crash leaving a pending flag armed.

type edgeStep struct {
	kind bladeEventKind
	at   sim.Time
}

func TestLifecycleTransitionEdges(t *testing.T) {
	cases := []struct {
		name  string
		prep  func(b *blade) // optional state injection before the steps
		steps []edgeStep

		wantHealth         health
		wantCrashes        int
		wantRestarts       int
		wantStalls         int
		wantBusy           bool
		wantDone           sim.Time
		wantWarm           bool
		wantRestartPending bool
		wantParkPending    bool
	}{
		{
			name:       "crash while draining cancels the restart",
			steps:      []edgeStep{{evDrainStart, 10}, {evBladeCrash, 20}, {evRestartFire, 30}},
			wantHealth: healthDown, wantCrashes: 1, wantRestarts: 0, wantWarm: true,
		},
		{
			name:       "crash while warming",
			steps:      []edgeStep{{evDrainStart, 10}, {evRestartFire, 20}, {evBladeCrash, 30}},
			wantHealth: healthDown, wantCrashes: 1, wantRestarts: 1,
		},
		{
			name:       "double crash counts once and evicts once",
			prep:       func(b *blade) { b.busy = true; b.done = 50 },
			steps:      []edgeStep{{evBladeCrash, 20}, {evBladeCrash, 30}},
			wantHealth: healthDown, wantCrashes: 1, wantDone: 50, wantWarm: true,
		},
		{
			name:       "restart fire on an up blade is a no-op",
			steps:      []edgeStep{{evRestartFire, 10}},
			wantHealth: healthUp, wantRestarts: 0, wantWarm: true,
		},
		{
			name:       "second drain of the same blade is a no-op",
			steps:      []edgeStep{{evDrainStart, 10}, {evDrainStart, 20}, {evRestartFire, 30}},
			wantHealth: healthWarming, wantRestarts: 1,
		},
		{
			name: "restart fire cannot hijack an autoscale drain",
			prep: func(b *blade) {
				b.health = healthDraining
				b.parkPending = true
			},
			steps:      []edgeStep{{evDrainStart, 10}, {evRestartFire, 20}},
			wantHealth: healthDraining, wantRestarts: 0, wantWarm: true,
			wantParkPending: true,
		},
		{
			name:       "double restart fire recharges warmup once",
			steps:      []edgeStep{{evDrainStart, 10}, {evRestartFire, 20}, {evRestartFire, 30}},
			wantHealth: healthWarming, wantRestarts: 1, wantWarm: false,
		},
		{
			name:       "stall on a draining blade is a no-op",
			steps:      []edgeStep{{evDrainStart, 10}, {evStallStart, 20}, {evStallEnd, 30}},
			wantHealth: healthDraining, wantStalls: 0, wantWarm: true,
			wantRestartPending: true,
		},
		{
			name:       "stall end restores warming, not up",
			steps:      []edgeStep{{evDrainStart, 10}, {evRestartFire, 20}, {evStallStart, 30}, {evStallEnd, 40}},
			wantHealth: healthWarming, wantRestarts: 1, wantStalls: 1,
		},
		{
			name:  "autoscale drain arriving mid-stall resumes into draining",
			prep:  func(b *blade) { b.parkPending = true },
			steps: []edgeStep{{evStallStart, 10}, {evStallEnd, 20}},
			// With no queue and no in-flight work the drain parks at the
			// stall end.
			wantHealth: healthParked, wantStalls: 1, wantWarm: false,
		},
		{
			name:       "crash on a parked blade",
			prep:       func(b *blade) { b.health = healthParked; b.warm = false },
			steps:      []edgeStep{{evBladeCrash, 10}},
			wantHealth: healthDown, wantCrashes: 1, wantWarm: false,
		},
		{
			name:       "stall on an idle blade pushes no completion",
			steps:      []edgeStep{{evStallStart, 10}, {evStallEnd, 20}},
			wantHealth: healthUp, wantStalls: 1, wantWarm: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickConfig().withDefaults()
			cfg.Blades = 1
			p := newPool(cfg, mustCal(t), 0)
			b := p.blades[0]
			// The default pool starts cold; these edges audit a blade
			// mid-run, after its first dispatch warmed it.
			b.warm = true
			if tc.prep != nil {
				tc.prep(b)
			}
			for _, st := range tc.steps {
				p.now = st.at
				p.applyFault(bladeEvent{at: st.at, kind: st.kind, blade: 0, delay: 5})
			}
			if b.health != tc.wantHealth {
				t.Errorf("health = %v, want %v", b.health, tc.wantHealth)
			}
			if b.crashes != tc.wantCrashes {
				t.Errorf("crashes = %d, want %d", b.crashes, tc.wantCrashes)
			}
			if b.restarts != tc.wantRestarts {
				t.Errorf("restarts = %d, want %d", b.restarts, tc.wantRestarts)
			}
			if b.stalls != tc.wantStalls {
				t.Errorf("stalls = %d, want %d", b.stalls, tc.wantStalls)
			}
			if b.busy != tc.wantBusy || b.done != tc.wantDone {
				t.Errorf("busy = %v done = %v, want %v and %v", b.busy, b.done, tc.wantBusy, tc.wantDone)
			}
			if b.warm != tc.wantWarm {
				t.Errorf("warm = %v, want %v (warmup recharge audit)", b.warm, tc.wantWarm)
			}
			if b.restartPending != tc.wantRestartPending {
				t.Errorf("restartPending = %v, want %v", b.restartPending, tc.wantRestartPending)
			}
			if b.parkPending != tc.wantParkPending {
				t.Errorf("parkPending = %v, want %v", b.parkPending, tc.wantParkPending)
			}
		})
	}
}

// TestActivatePoolEdges pins the scale-up side of the autoscaler
// (DESIGN.md §13) directly against activatePool on a quiescent 4-pool
// fleet: drainPool first takes the highest-index pools out of routing
// (their idle blades park at once, losing warmth), then each case puts
// the drained blades in a state a real run can leave them in and scales
// up. Every case checks pool 3, the first one drained. A parked blade
// comes back through warming, still cold; a blade caught mid-drain
// resumes as up with its warmth; a stalled blade only loses its park
// flag; a pool with no revivable blade is passed over.
func TestActivatePoolEdges(t *testing.T) {
	cases := []struct {
		name   string
		drains int                      // drainPool calls before the scale-up
		prep   func(pools []*poolShard) // state injection on the drained pools

		wantActivated   bool // pool 3 is back in routing
		wantHealth      health
		wantWarm        bool
		wantParkPending bool
	}{
		{
			name:          "parked blade warms up cold",
			drains:        1,
			wantActivated: true, wantHealth: healthWarming,
		},
		{
			name:   "draining blade resumes up without a warmup recharge",
			drains: 1,
			prep: func(pools []*poolShard) {
				for _, b := range pools[3].blades {
					b.health, b.warm, b.parkPending = healthDraining, true, true
				}
			},
			wantActivated: true, wantHealth: healthUp, wantWarm: true,
		},
		{
			name:   "stalled blade loses its park flag",
			drains: 1,
			prep: func(pools []*poolShard) {
				for _, b := range pools[3].blades {
					b.health, b.stallRestore, b.warm, b.parkPending = healthStalled, healthUp, true, true
				}
			},
			wantActivated: true, wantHealth: healthStalled, wantWarm: true,
		},
		{
			// Pool 2 is the lowest-index inactive pool, so only its
			// dead blades send the scale-up on to pool 3.
			name:   "pool of down blades is skipped",
			drains: 2,
			prep: func(pools []*poolShard) {
				for _, b := range pools[2].blades {
					b.health = healthDown
				}
			},
			wantActivated: true, wantHealth: healthWarming,
		},
		{
			name:   "no revivable pool activates nothing",
			drains: 1,
			prep: func(pools []*poolShard) {
				for _, b := range pools[3].blades {
					b.health = healthDown
				}
			},
			wantHealth: healthDown,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fleetConfig(t).withDefaults()
			p := newPool(cfg, cfg.Cal, 0)
			f := p.fleet
			// A mid-run fleet: every blade already warmed by a dispatch.
			for _, b := range p.blades {
				b.warm = true
			}
			for i := 0; i < tc.drains; i++ {
				if !p.drainPool() {
					t.Fatalf("drain %d found no active pool", i)
				}
			}
			if tc.prep != nil {
				tc.prep(f.pools)
			}
			if got := p.activatePool(); got != tc.wantActivated {
				t.Fatalf("activatePool = %v, want %v", got, tc.wantActivated)
			}
			wantUps := 0
			if tc.wantActivated {
				wantUps = 1
			}
			if f.scaleUps != wantUps {
				t.Errorf("scaleUps = %d, want %d", f.scaleUps, wantUps)
			}
			if got, want := f.activeCount(), len(f.pools)-tc.drains+wantUps; got != want {
				t.Errorf("active pools = %d, want %d", got, want)
			}
			if f.pools[3].active != tc.wantActivated {
				t.Errorf("pool 3 active = %v, want %v", f.pools[3].active, tc.wantActivated)
			}
			for _, b := range f.pools[3].blades {
				if b.health != tc.wantHealth {
					t.Errorf("blade %d health = %v, want %v", b.id, b.health, tc.wantHealth)
				}
				if b.warm != tc.wantWarm {
					t.Errorf("blade %d warm = %v, want %v (warmup recharge audit)", b.id, b.warm, tc.wantWarm)
				}
				if b.parkPending != tc.wantParkPending {
					t.Errorf("blade %d parkPending = %v, want %v", b.id, b.parkPending, tc.wantParkPending)
				}
			}
		})
	}
}
