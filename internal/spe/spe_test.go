package spe

import (
	"strings"
	"testing"

	"cellport/internal/cost"
	"cellport/internal/eib"
	"cellport/internal/ls"
	"cellport/internal/mainmem"
	"cellport/internal/mfc"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

type rig struct {
	e   *sim.Engine
	bus *eib.Bus
	mem *mainmem.Memory
	s   *SPE
	rec *trace.Recorder
}

func newRig() *rig {
	e := sim.NewEngine()
	bus := eib.New(e, eib.DefaultConfig())
	mem := mainmem.New(8 << 20)
	rec := trace.NewRecorder()
	s := New(e, 3, bus, mem, cost.NewSPE(), rec)
	return &rig{e: e, bus: bus, mem: mem, s: s, rec: rec}
}

func TestLoadValidation(t *testing.T) {
	r := newRig()
	if err := r.s.Load(Program{Name: "nil"}); err == nil {
		t.Error("nil entry point accepted")
	}
	if err := r.s.Load(Program{Name: "big", CodeBytes: ls.Size, Main: func(*Context) {}}); err == nil {
		t.Error("oversized image accepted")
	}
	if r.s.Running() {
		t.Error("failed loads must not mark the SPE running")
	}
}

func TestContextIdentity(t *testing.T) {
	r := newRig()
	done := false
	err := r.s.Load(Program{
		Name:      "id",
		CodeBytes: 1024,
		Main: func(ctx *Context) {
			if ctx.ID() != 3 {
				t.Errorf("ID = %d, want 3", ctx.ID())
			}
			if ctx.Model().Name != "SPE" {
				t.Errorf("model = %s", ctx.Model().Name)
			}
			if ctx.Store() != r.s.Store {
				t.Error("Store mismatch")
			}
			if ctx.Proc() == nil {
				t.Error("nil proc")
			}
			done = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("program did not run")
	}
}

func TestComputeAccounting(t *testing.T) {
	r := newRig()
	err := r.s.Load(Program{
		Name:      "work",
		CodeBytes: 1024,
		Main: func(ctx *Context) {
			ctx.ComputeScalar(0.35*3.2e9, "a")             // 1 s
			ctx.ComputeSIMD(16*3.2e9, cost.Bits16, 1, "b") // 1 s
			ctx.ComputeCycles(3.2e9, "c")                  // 1 s
			ctx.ComputeBranches(1e9, 0.1, "d")             // 1e9*0.1*18 cycles
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	wantBranches := cost.NewSPE().Branches(1e9, 0.1)
	want := 3*sim.Second + wantBranches
	if got := r.s.BusyTime(); got != want {
		t.Fatalf("busy = %v, want %v", got, want)
	}
	// Compute spans must be traced on the SPE3 lane.
	var traced sim.Duration
	for _, s := range r.rec.Spans() {
		if s.Lane == "SPE3" && s.Kind == trace.KindCompute {
			traced += s.End.Sub(s.Start)
		}
	}
	if traced != want {
		t.Fatalf("traced busy = %v, want %v", traced, want)
	}
}

func TestZeroComputeIsFree(t *testing.T) {
	r := newRig()
	err := r.s.Load(Program{
		Name:      "free",
		CodeBytes: 512,
		Main: func(ctx *Context) {
			ctx.ComputeScalar(0, "zero")
			ctx.ComputeSIMD(-5, cost.Bits8, 0.5, "neg")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.s.BusyTime() != 0 {
		t.Fatalf("busy = %v, want 0", r.s.BusyTime())
	}
}

func TestDMAWaitAccounting(t *testing.T) {
	r := newRig()
	ea := r.mem.MustAlloc(64*1024, 128)
	err := r.s.Load(Program{
		Name:      "dma",
		CodeBytes: 2048,
		Main: func(ctx *Context) {
			buf := ctx.Store().MustAlloc(16*1024, 128)
			if err := ctx.Get(buf, ea, 16*1024, 0); err != nil {
				t.Error(err)
				return
			}
			ctx.WaitTag(0)
			if err := ctx.Put(buf, ea+16384, 16*1024, 1); err != nil {
				t.Error(err)
				return
			}
			ctx.WaitTagMask(1 << 1)
			if err := ctx.GetList(buf, []mfc.ListElement{{EA: ea, Size: 4096}}, 2); err != nil {
				t.Error(err)
				return
			}
			ctx.WaitAllDMA()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.s.DMAWait() <= 0 {
		t.Fatal("expected DMA wait time")
	}
	if s := r.s.MFC.Stats(); s.Commands != 3 || s.ListCommands != 1 {
		t.Fatalf("MFC stats = %+v", s)
	}
}

func TestMailboxWaitAccounting(t *testing.T) {
	r := newRig()
	err := r.s.Load(Program{
		Name:      "mbox",
		CodeBytes: 512,
		Main: func(ctx *Context) {
			v := ctx.ReadInMbox()
			ctx.WriteOutMbox(v + 1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.e.Spawn("ppe", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		r.s.InMbox.Write(p, 10)
		if got := r.s.OutMbox.Read(p); got != 11 {
			t.Errorf("mbox round trip = %d", got)
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.s.MboxWait() < 5*sim.Microsecond {
		t.Fatalf("mbox wait = %v, want >= 5us", r.s.MboxWait())
	}
}

func TestWaitStoppedAndReload(t *testing.T) {
	r := newRig()
	runs := 0
	prog := Program{Name: "oneshot", CodeBytes: 256, Main: func(ctx *Context) {
		ctx.ComputeCycles(100, "x")
		runs++
	}}
	if err := r.s.Load(prog); err != nil {
		t.Fatal(err)
	}
	r.e.Spawn("waiter", func(p *sim.Proc) {
		r.s.WaitStopped(p)
		if r.s.Running() {
			t.Error("still running after WaitStopped")
		}
		if err := r.s.Load(prog); err != nil {
			t.Errorf("reload failed: %v", err)
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
}

// untracedAllocs runs a program on an untraced SPE that measures, with
// testing.AllocsPerRun, the allocations of one call to op, and returns
// that count with the SPE. Measuring inside the program keeps the build,
// the spawn and the engine's start out of the count.
func untracedAllocs(t *testing.T, op func(ctx *Context, buf ls.Addr, ea mainmem.Addr)) (float64, *SPE) {
	t.Helper()
	e := sim.NewEngine()
	bus := eib.New(e, eib.DefaultConfig())
	mem := mainmem.New(1 << 20)
	ea := mem.MustAlloc(4096, 128)
	s := New(e, 0, bus, mem, cost.NewSPE(), nil)
	var allocs float64
	if err := s.Load(Program{Name: "n", CodeBytes: 128, Main: func(ctx *Context) {
		buf := ctx.Store().MustAlloc(4096, 128)
		allocs = testing.AllocsPerRun(20, func() { op(ctx, buf, ea) })
	}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs, s
}

// TestNilTracerIsAllocationFree runs SPEs with a nil recorder: the programs
// run, and neither a compute charge nor a tag wait allocates (the lane name
// is built once, in New). Under -race only the runs are checked: the race
// runtime's own allocations make the counts unequal.
func TestNilTracerIsAllocationFree(t *testing.T) {
	charges := func(n int) func(*Context, ls.Addr, mainmem.Addr) {
		return func(ctx *Context, _ ls.Addr, _ mainmem.Addr) {
			for i := 0; i < n; i++ {
				ctx.ComputeCycles(10, "ok")
			}
		}
	}
	few, _ := untracedAllocs(t, charges(10))
	many, s := untracedAllocs(t, charges(1010))
	if s.BusyTime() <= 0 {
		t.Fatal("untraced charges recorded no busy time")
	}
	if few != many && !raceEnabled {
		t.Errorf("untraced charges allocate: %v allocs for 10 charges, %v for 1010", few, many)
	}

	// A DMA allocates on its own, so WaitTag is priced against WaitTagMask,
	// which traces nothing, over the same transfer.
	waits := func(wait func(*Context)) func(*Context, ls.Addr, mainmem.Addr) {
		return func(ctx *Context, buf ls.Addr, ea mainmem.Addr) {
			if err := ctx.Get(buf, ea, 4096, 0); err != nil {
				t.Error(err)
			}
			wait(ctx)
		}
	}
	masked, _ := untracedAllocs(t, waits(func(ctx *Context) { ctx.WaitTagMask(1 << 0) }))
	tagged, s := untracedAllocs(t, waits(func(ctx *Context) { ctx.WaitTag(0) }))
	if s.DMAWait() <= 0 {
		t.Fatal("untraced tag waits recorded no DMA wait")
	}
	if tagged != masked && !raceEnabled {
		t.Errorf("untraced tag waits allocate: %v allocs per transfer with WaitTag, %v with WaitTagMask", tagged, masked)
	}
}

func TestLoadErrorMessageNamesProgram(t *testing.T) {
	r := newRig()
	err := r.s.Load(Program{Name: "huge-kernel", CodeBytes: ls.Size + 1, Main: func(*Context) {}})
	if err == nil || !strings.Contains(err.Error(), "huge-kernel") {
		t.Fatalf("error should name the program: %v", err)
	}
}
