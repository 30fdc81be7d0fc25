package cell

import (
	"runtime"
	"strings"
	"testing"

	"cellport/internal/mainmem"
	"cellport/internal/mfc"
	"cellport/internal/sim"
	"cellport/internal/spe"
)

func recycleConfig() Config {
	cfg := DefaultConfig()
	cfg.MemorySize = 16 << 20
	return cfg
}

// dmaOutcome is what a run of dmaProgram shows: its virtual time, its
// event count and SPE 0's DMA statistics.
type dmaOutcome struct {
	elapsed sim.Duration
	events  uint64
	dmaWait sim.Duration
	stats   mfc.Stats
}

// runDMA runs one SPE program that gets 4 KB under tag 3 and, when wait
// is set, waits for the tag before it returns.
func runDMA(t *testing.T, m *Machine, wait bool) dmaOutcome {
	t.Helper()
	elapsed, err := m.RunMain("dma", func(ctx *Context) {
		ea := ctx.Memory().MustAlloc(4096, mainmem.AlignCacheLine)
		err := ctx.LoadSPE(0, spe.Program{Name: "dma", CodeBytes: 2048, Main: func(sc *spe.Context) {
			lsa := sc.Store().MustAlloc(4096, 128)
			if err := sc.Get(lsa, ea, 4096, 3); err != nil {
				t.Error(err)
			}
			if wait {
				sc.WaitTag(3)
			}
		}})
		if err != nil {
			t.Error(err)
			return
		}
		ctx.WaitSPE(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.SPE(0)
	return dmaOutcome{elapsed, m.Engine.EventCount, s.DMAWait(), s.MFC.Stats()}
}

// TestRecycleReusesMachine: the parts of a released machine are the ones
// the next New of its shape hands out, in a new handle; a released handle
// panics, and releasing it again is a no-op even after its parts were
// handed out again; a machine of another shape is built anew.
func TestRecycleReusesMachine(t *testing.T) {
	emptyPool()
	cfg := recycleConfig()
	m := New(cfg)
	engine := m.Engine
	m.Release()
	m.Release() // a no-op: the parts enter the pool once
	for name, use := range map[string]func(){
		"SPE":     func() { m.SPE(0) },
		"RunMain": func() { m.RunMain("late", func(*Context) {}) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "after Release") {
					t.Errorf("%s on a released machine: recovered %v, want a use-after-Release panic", name, r)
				}
			}()
			use()
		}()
	}
	again := New(cfg)
	if again == m || again.Engine != engine {
		t.Error("New did not hand out the released parts of its shape in a new handle")
	}
	m.Release() // stale: must not hand again's parts to another New
	if other := New(DefaultConfig()); other.Engine == engine {
		t.Error("a machine of another shape was handed out")
	}
	if fresh := New(cfg); fresh.Engine == engine {
		t.Error("parts in use were handed out twice")
	}
	if _, err := again.RunMain("owner", func(*Context) {}); err != nil {
		t.Errorf("the owner's run after a stale Release: %v", err)
	}
}

// TestRecycleDropsLiveMachine: a machine released with a live process,
// or after its main memory or a local store was released on its own, is
// not handed out again, and the next New of its shape works.
func TestRecycleDropsLiveMachine(t *testing.T) {
	cfg := recycleConfig()
	for name, spoil := range map[string]func(m *Machine){
		"live process":         func(m *Machine) { m.Engine.Spawn("never-run", func(*sim.Proc) {}) },
		"memory released":      func(m *Machine) { m.Memory.Release() },
		"local store released": func(m *Machine) { m.SPE(cfg.NumSPEs - 1).Store.Release() },
	} {
		emptyPool()
		m := New(cfg)
		engine := m.Engine
		spoil(m)
		m.Release()
		if n := pooled(); n != 0 {
			t.Errorf("%s: %d machines pooled, want 0", name, n)
		}
		next := New(cfg)
		if next.Engine == engine {
			t.Errorf("%s: the machine was recycled", name)
		}
		if got := runDMA(t, next, true); got.stats.Commands != 1 {
			t.Errorf("%s: the next machine ran %d commands, want 1", name, got.stats.Commands)
		}
		next.Release()
	}
}

// TestRecycleAfterDroppedDMA: a run whose DMA was dropped ends with its
// tag pending and a queue slot held; the reset clears both, so a clean
// run on the recycled machine equals one on a new machine.
func TestRecycleAfterDroppedDMA(t *testing.T) {
	emptyPool()
	cfg := recycleConfig()
	fresh := New(cfg)
	want := runDMA(t, fresh, true)
	emptyPool()

	m := New(cfg)
	m.SPE(0).MFC.SetFaultHook(func() mfc.FaultAction { return mfc.FaultDrop })
	runDMA(t, m, false)
	engine := m.Engine
	m.Release()

	again := New(cfg)
	if again.Engine != engine {
		t.Fatal("the faulted machine was not recycled")
	}
	if got := runDMA(t, again, true); got != want {
		t.Errorf("clean run after a dropped DMA: %+v, want %+v as on a new machine", got, want)
	}
}

// TestRecycleBuildAllocFree: building a machine of a shape in the pool
// allocates only the Machine handle.
func TestRecycleBuildAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	build := func() { New(cfg).Release() }
	build()
	n := testing.AllocsPerRun(100, build)
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; counts not compared")
	}
	if n > 1 {
		t.Fatalf("a recycled machine build allocates %v objects, want 1 (the handle); by site:\n%s", n, allocSites(build, 100))
	}
}

// TestRecycleNoGoroutineLeft: neither a failed run nor a run of programs
// loaded one after another leaves a goroutine behind, on a new machine or
// a recycled one.
func TestRecycleNoGoroutineLeft(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := recycleConfig()
	for round := 0; round < 3; round++ {
		m := New(cfg)
		_, err := m.RunMain("boom", func(ctx *Context) {
			if err := ctx.LoadSPE(1, spe.Program{Name: "boom", CodeBytes: 2048, Main: func(*spe.Context) { panic("boom") }}); err != nil {
				t.Error(err)
			}
			ctx.WaitSPE(1)
		})
		if err == nil {
			t.Fatal("a panicking SPE program did not fail the run")
		}
		m.Release()

		m = New(cfg)
		if _, err := m.RunMain("sequential", func(ctx *Context) {
			for i := 0; i < 4; i++ {
				if err := ctx.LoadSPE(0, spe.Program{Name: "step", CodeBytes: 2048, Main: func(sc *spe.Context) {
					sc.ComputeCycles(100, "step")
				}}); err != nil {
					t.Error(err)
				}
				ctx.WaitSPE(0)
			}
		}); err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	// A goroutine from the previous test may still be exiting, so the
	// count may drop below the baseline; it must not rise above it.
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines after the runs = %d, want at most the baseline %d", n, baseline)
	}
}
