package cell

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"cellport/internal/ls"
	"cellport/internal/sim"
	"cellport/internal/spe"
	"cellport/internal/trace"
)

func TestMachineBringUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemorySize = 16 << 20
	m := New(cfg)
	if len(m.SPEs) != 8 {
		t.Fatalf("SPEs = %d, want 8", len(m.SPEs))
	}
	if m.Memory.Size() != 16<<20 {
		t.Fatalf("memory = %d", m.Memory.Size())
	}
	d, err := m.RunMain("noop", func(ctx *Context) {})
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("noop main took %v, want 0", d)
	}
}

func TestPPEComputeAdvancesTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemorySize = 16 << 20
	m := New(cfg)
	d, err := m.RunMain("work", func(ctx *Context) {
		ctx.ComputeScalar(1.6e9, "busy") // exactly 1 s on the PPE model
	})
	if err != nil {
		t.Fatal(err)
	}
	if d != sim.Second {
		t.Fatalf("elapsed = %v, want 1s", d)
	}
}

// TestMailboxRoundTrip exercises the full §3.5 protocol: PPE writes a
// command and an address; the SPE program reads both, "computes", and
// answers through the outbound mailbox which the PPE polls.
func TestMailboxRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemorySize = 16 << 20
	m := New(cfg)
	echo := spe.Program{
		Name:      "echo",
		CodeBytes: 4096,
		Main: func(ctx *spe.Context) {
			for {
				op := ctx.ReadInMbox()
				if op == 0xFFFF {
					return
				}
				arg := ctx.ReadInMbox()
				ctx.ComputeScalar(1000, "echo-work")
				ctx.WriteOutMbox(op + arg)
			}
		},
	}
	var got uint32
	d, err := m.RunMain("driver", func(ctx *Context) {
		if err := ctx.LoadSPE(0, echo); err != nil {
			t.Error(err)
			return
		}
		ctx.WriteInMbox(0, 40)
		ctx.WriteInMbox(0, 2)
		got, _ = ctx.PollOutMbox(0, sim.Forever)
		ctx.WriteInMbox(0, 0xFFFF)
		ctx.WaitSPE(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("round trip = %d, want 42", got)
	}
	if d <= 0 {
		t.Fatal("round trip should take virtual time")
	}
}

func TestInterruptMailboxPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemorySize = 16 << 20
	m := New(cfg)
	prog := spe.Program{
		Name:      "intr",
		CodeBytes: 4096,
		Main: func(ctx *spe.Context) {
			v := ctx.ReadInMbox()
			ctx.WriteOutIntrMbox(v * 2)
		},
	}
	var got uint32
	_, err := m.RunMain("driver", func(ctx *Context) {
		if err := ctx.LoadSPE(3, prog); err != nil {
			t.Error(err)
			return
		}
		ctx.WriteInMbox(3, 21)
		got, _ = ctx.WaitOutIntrMbox(3, sim.Forever)
		ctx.WaitSPE(3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("interrupt path = %d, want 42", got)
	}
}

// TestSPEDMAKernel runs a real data-moving kernel: the PPE places bytes in
// main memory, the SPE DMAs them in, transforms them, DMAs them back.
func TestSPEDMAKernel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemorySize = 16 << 20
	m := New(cfg)
	const n = 4096
	in := m.Memory.MustAlloc(n, 128)
	out := m.Memory.MustAlloc(n, 128)
	src := m.Memory.Bytes(in, n)
	for i := range src {
		src[i] = byte(i * 7)
	}
	kernel := spe.Program{
		Name:      "negate",
		CodeBytes: 8192,
		Main: func(ctx *spe.Context) {
			buf := ctx.Store().MustAlloc(n, 128)
			if err := ctx.Get(buf, in, n, 0); err != nil {
				t.Error(err)
				return
			}
			ctx.WaitTag(0)
			b := ctx.Store().Bytes(buf, n)
			for i := range b {
				b[i] = ^b[i]
			}
			ctx.ComputeSIMD(n, 8, 0.9, "negate")
			if err := ctx.Put(buf, out, n, 1); err != nil {
				t.Error(err)
				return
			}
			ctx.WaitTag(1)
			ctx.WriteOutMbox(1)
		},
	}
	_, err := m.RunMain("driver", func(ctx *Context) {
		if err := ctx.LoadSPE(0, kernel); err != nil {
			t.Error(err)
			return
		}
		ctx.PollOutMbox(0, sim.Forever)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	for i := range want {
		want[i] = ^byte(i * 7)
	}
	if !bytes.Equal(m.Memory.Bytes(out, n), want) {
		t.Fatal("SPE kernel output wrong")
	}
	if m.SPE(0).DMAWait() <= 0 {
		t.Error("expected nonzero DMA wait accounting")
	}
	if m.SPE(0).BusyTime() <= 0 {
		t.Error("expected nonzero busy accounting")
	}
}

func TestLoadRejectsOversizedProgram(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemorySize = 16 << 20
	m := New(cfg)
	_, err := m.RunMain("driver", func(ctx *Context) {
		err := ctx.LoadSPE(0, spe.Program{Name: "huge", CodeBytes: ls.Size, Main: func(*spe.Context) {}})
		if err == nil || !strings.Contains(err.Error(), "local store") {
			t.Errorf("oversized load error = %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsDoubleLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemorySize = 16 << 20
	m := New(cfg)
	_, err := m.RunMain("driver", func(ctx *Context) {
		idle := spe.Program{Name: "idle", CodeBytes: 1024, Main: func(c *spe.Context) { c.ReadInMbox() }}
		if err := ctx.LoadSPE(1, idle); err != nil {
			t.Error(err)
		}
		if err := ctx.LoadSPE(1, idle); err == nil {
			t.Error("double load accepted")
		}
		ctx.WriteInMbox(1, 0)
		ctx.WaitSPE(1)
		// After the program exits the SPE is reloadable.
		if err := ctx.LoadSPE(1, idle); err != nil {
			t.Errorf("reload failed: %v", err)
		}
		ctx.WriteInMbox(1, 0)
		ctx.WaitSPE(1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTracerReceivesSpans(t *testing.T) {
	cfg := DefaultConfig()
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	m := New(cfg)
	_, err := m.RunMain("traced", func(ctx *Context) {
		ctx.ComputeScalar(1e6, "ppe-work")
		prog := spe.Program{Name: "w", CodeBytes: 1024, Main: func(c *spe.Context) {
			c.ComputeScalar(1e6, "spe-work")
		}}
		if err := ctx.LoadSPE(0, prog); err != nil {
			t.Error(err)
		}
		ctx.WaitSPE(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	lanes := rec.Lanes()
	if len(lanes) != 2 || lanes[0] != "PPE" || lanes[1] != "SPE0" {
		t.Fatalf("lanes = %v", lanes)
	}
	var sb strings.Builder
	if err := rec.Gantt(&sb, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "PPE") || !strings.Contains(sb.String(), "C") {
		t.Fatalf("gantt rendering missing content:\n%s", sb.String())
	}
}

func TestParallelSPEsOverlap(t *testing.T) {
	// Two SPEs each computing 1s driven from one PPE thread via Send-style
	// commands must finish in ~1s, not 2s.
	cfg := DefaultConfig()
	cfg.MemorySize = 16 << 20
	m := New(cfg)
	work := spe.Program{
		Name:      "work",
		CodeBytes: 2048,
		Main: func(ctx *spe.Context) {
			ctx.ReadInMbox()
			ctx.ComputeScalar(0.35*3.2e9, "1s-of-work") // exactly 1 s at SPU scalar rate
			ctx.WriteOutMbox(1)
		},
	}
	d, err := m.RunMain("driver", func(ctx *Context) {
		for i := 0; i < 2; i++ {
			if err := ctx.LoadSPE(i, work); err != nil {
				t.Error(err)
			}
		}
		ctx.WriteInMbox(0, 1)
		ctx.WriteInMbox(1, 1)
		ctx.PollOutMbox(0, sim.Forever)
		ctx.PollOutMbox(1, sim.Forever)
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Seconds() > 1.01 {
		t.Fatalf("parallel SPEs took %v, want about 1s", d)
	}
}

// TestRunMainPanicError: a panic in an SPE program's Main fails the run
// instead of the host program. RunMain returns an error naming the
// process, the panic value and the stack where it was raised; the PPE
// driver still blocked on the SPE is unwound; and no host goroutine is
// left behind.
func TestRunMainPanicError(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := DefaultConfig()
	cfg.MemorySize = 16 << 20
	m := New(cfg)
	defer m.Release()
	boom := spe.Program{
		Name:      "boom",
		CodeBytes: 2048,
		Main: func(ctx *spe.Context) {
			ctx.ComputeScalar(1000, "before")
			panic("spu exploded")
		},
	}
	driverUnwound := false
	_, err := m.RunMain("driver", func(ctx *Context) {
		defer func() { driverUnwound = true }()
		if err := ctx.LoadSPE(0, boom); err != nil {
			t.Error(err)
			return
		}
		ctx.WaitSPE(0)
		t.Error("driver returned from WaitSPE on a panicked SPE")
	})
	if err == nil {
		t.Fatal("RunMain returned nil for a panicking SPE program")
	}
	for _, want := range []string{"SPE0:boom", "spu exploded", "TestRunMainPanicError"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name %q:\n%v", want, err)
		}
	}
	if !driverUnwound {
		t.Error("the blocked PPE driver was not unwound")
	}
	// A goroutine from the previous test may still be exiting, so the
	// count may drop below the baseline; it must not rise above it.
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines after the failed run = %d, want at most the baseline %d", n, baseline)
	}
}

// BenchmarkMachineBuild prices building and releasing a default machine:
// with main memory and every local store recycled through the backing
// pool, a build re-zeroes only what the previous machine touched.
func BenchmarkMachineBuild(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(cfg).Release()
	}
}
