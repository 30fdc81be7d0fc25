package marvel

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"cellport/internal/cell"
	"cellport/internal/fault"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// recycleShape returns the test machine configuration with a memory size
// no other test builds, one per i, so the first run of that shape is on a
// new machine and every later one on the machine the run before released.
func recycleShape(i int) cell.Config {
	mcfg := *testMachineConfig()
	mcfg.MemorySize += uint32(i+1) << 17
	return mcfg
}

// TestGoldenPortedRecycle runs every TestGoldenPorted case twice, first
// on a new machine and then on the machine that run released, and holds
// both to the pinned digests.
func TestGoldenPortedRecycle(t *testing.T) {
	for i, tc := range goldenPortedCases(NewArtifactCache()) {
		mcfg := recycleShape(i)
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, mcfg)
			tc.check(t, mcfg)
		})
	}
}

// tracedOutcome is what a traced run shows: its JSON result, event count
// and trace digest.
type tracedOutcome struct {
	result string
	events uint64
	trace  string
}

func tracedRun(t *testing.T, cfg PortedConfig, mcfg cell.Config) (*PortedResult, tracedOutcome) {
	t.Helper()
	rec := trace.NewRecorder()
	mcfg.Tracer = rec
	cfg.MachineConfig = &mcfg
	res := mustRun(t, cfg)
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, tracedOutcome{string(js), res.EventCount, spanDigest(rec)}
}

// TestRecycleAfterFault: a clean run on a machine recycled from a run
// under each kind of fault equals the clean run on a new machine.
func TestRecycleAfterFault(t *testing.T) {
	parse := func(spec string) func(sim.Duration) *fault.Plan {
		return func(sim.Duration) *fault.Plan {
			plan, err := fault.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			return plan
		}
	}
	plans := []struct {
		name     string
		plan     func(total sim.Duration) *fault.Plan
		watchdog sim.Duration
	}{
		{"faults-seed7", func(sim.Duration) *fault.Plan { return fault.Seeded(7, cell.DefaultConfig().NumSPEs) }, 0},
		{"dma-drop", parse("dma-drop:spe=1,n=2"), 2 * sim.Millisecond},
		{"dma-corrupt", parse("dma-corrupt:spe=0,n=2"), 0},
		{"crash", func(total sim.Duration) *fault.Plan {
			return &fault.Plan{Faults: []fault.Fault{{Kind: fault.CrashSPE, SPE: 0, At: sim.Time(total / 2)}}}
		}, 0},
		{"mbox-stall", parse("mbox-stall:spe=0,n=1,delay=300us"), 0},
	}
	for i, pl := range plans {
		t.Run(pl.name, func(t *testing.T) {
			mcfg := recycleShape(100 + i)
			clean, want := tracedRun(t, faultCfg(2), mcfg)
			faulted := faultCfg(2)
			faulted.Faults = pl.plan(clean.Total)
			faulted.Watchdog = pl.watchdog
			if res, _ := tracedRun(t, faulted, mcfg); res.Faults == nil || len(res.Faults.Injected) == 0 {
				t.Fatalf("the %s plan injected nothing", pl.name)
			}
			if _, got := tracedRun(t, faultCfg(2), mcfg); got != want {
				t.Errorf("clean run after %s: %d events, trace %s, result\n%s\nwant %d events, trace %s, result\n%s",
					pl.name, got.events, got.trace, got.result, want.events, want.trace, want.result)
			}
		})
	}
}

// TestRecycleConcurrentRunPorted: ported runs on concurrent goroutines,
// sharing the machine pool, equal the same runs made one at a time, and
// leave no goroutine behind.
func TestRecycleConcurrentRunPorted(t *testing.T) {
	baseline := runtime.NumGoroutine()
	arts := NewArtifactCache()
	var cfgs []PortedConfig
	for _, sc := range []Scenario{SingleSPE, MultiSPE, MultiSPE2, Pipelined} {
		for _, v := range []Variant{Naive, Optimized} {
			cfgs = append(cfgs, PortedConfig{Scenario: sc, Variant: v, Workload: testWorkload(2),
				Validate: true, MachineConfig: testMachineConfig(), Artifacts: arts})
		}
	}
	outcome := func(cfg PortedConfig) (string, error) {
		res, err := RunPorted(cfg)
		if err != nil {
			return "", err
		}
		js, err := json.Marshal(res)
		return string(js), err
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if want[i], err = outcome(cfg); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 2
	got := make([]string, rounds*len(cfgs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = outcome(cfgs[i%len(cfgs)])
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if c := cfgs[i%len(cfgs)]; got[i] != want[i%len(cfgs)] {
			t.Errorf("%v/%v run concurrently differs from its serial run", c.Scenario, c.Variant)
		}
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines after the runs = %d, want at most the baseline %d", n, baseline)
	}
}
