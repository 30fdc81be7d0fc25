package core

import (
	"strings"
	"testing"

	"cellport/internal/cell"
	"cellport/internal/mainmem"
	"cellport/internal/sim"
	"cellport/internal/spe"
)

const (
	opDouble Opcode = 1
	opSquare Opcode = 2
)

// arithKernel is a minimal two-function kernel: the wrapper holds one
// uint32 input and one uint32 output field.
func arithKernel(mode CompletionMode) KernelSpec {
	apply := func(f func(uint32) uint32) KernelFunc {
		return func(ctx *spe.Context, wrapper mainmem.Addr) uint32 {
			lsa := ctx.Store().MustAlloc(32, 16)
			if err := ctx.Get(lsa, wrapper, 32, 0); err != nil {
				return ResultUnknownOpcode
			}
			ctx.WaitTag(0)
			in := ByteOrder.Uint32(ctx.Store().Bytes(lsa, 4))
			ctx.ComputeScalar(10, "arith")
			ByteOrder.PutUint32(ctx.Store().Bytes(lsa+16, 4), f(in))
			if err := ctx.Put(lsa+16, wrapper+16, 16, 1); err != nil {
				return ResultUnknownOpcode
			}
			ctx.WaitTag(1)
			return 0
		}
	}
	return KernelSpec{
		Name:      "arith",
		CodeBytes: 8 * 1024,
		Mode:      mode,
		Functions: map[Opcode]KernelFunc{
			opDouble: apply(func(v uint32) uint32 { return v * 2 }),
			opSquare: apply(func(v uint32) uint32 { return v * v }),
		},
	}
}

func runOnCell(t *testing.T, body func(ctx *cell.Context)) {
	t.Helper()
	cfg := cell.DefaultConfig()
	cfg.MemorySize = 16 << 20 // keep test machines small
	m := cell.New(cfg)
	if _, err := m.RunMain("test", body); err != nil {
		t.Fatal(err)
	}
}

func TestSendAndWaitBothModes(t *testing.T) {
	for _, mode := range []CompletionMode{Polling, Interrupt} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			runOnCell(t, func(ctx *cell.Context) {
				iface, err := Open(ctx, 0, arithKernel(mode))
				if err != nil {
					t.Error(err)
					return
				}
				w, err := NewWrapper(ctx.Memory(),
					WrapperField{"in", 4}, WrapperField{"out", 4})
				if err != nil {
					t.Error(err)
					return
				}
				ByteOrder.PutUint32(w.Bytes("in"), 21)
				if _, err := iface.SendAndWait(opDouble, w.Addr()); err != nil {
					t.Error(err)
					return
				}
				if got := ByteOrder.Uint32(w.Bytes("out")); got != 42 {
					t.Errorf("double(21) = %d, want 42", got)
				}
				ByteOrder.PutUint32(w.Bytes("in"), 9)
				if _, err := iface.SendAndWait(opSquare, w.Addr()); err != nil {
					t.Error(err)
					return
				}
				if got := ByteOrder.Uint32(w.Bytes("out")); got != 81 {
					t.Errorf("square(9) = %d, want 81", got)
				}
				if err := w.Free(); err != nil {
					t.Error(err)
				}
				if err := iface.Close(); err != nil {
					t.Error(err)
				}
				if err := ctx.Memory().CheckLeaks(); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

func TestSendWaitSplitEnablesParallelism(t *testing.T) {
	// Two kernels on two SPEs driven with Send+Send then Wait+Wait must
	// overlap: total is about one kernel time, not two.
	busy := KernelSpec{
		Name:      "busy",
		CodeBytes: 4096,
		Functions: map[Opcode]KernelFunc{
			1: func(ctx *spe.Context, _ mainmem.Addr) uint32 {
				ctx.ComputeScalar(0.35*3.2e9/10, "busy") // 100 ms
				return 0
			},
		},
	}
	runOnCell(t, func(ctx *cell.Context) {
		a, err := Open(ctx, 0, busy)
		if err != nil {
			t.Error(err)
			return
		}
		b, err := Open(ctx, 1, busy)
		if err != nil {
			t.Error(err)
			return
		}
		start := ctx.Now()
		if err := a.Send(1, 0); err != nil {
			t.Error(err)
		}
		if err := b.Send(1, 0); err != nil {
			t.Error(err)
		}
		if !a.inFlight {
			t.Error("a should be in flight")
		}
		if _, err := a.Wait(); err != nil {
			t.Error(err)
		}
		if _, err := b.Wait(); err != nil {
			t.Error(err)
		}
		if d := ctx.Now().Sub(start); d.Seconds() > 0.11 {
			t.Errorf("parallel kernels took %v, want about 100ms", d)
		}
		if err := a.Close(); err != nil {
			t.Error(err)
		}
		if err := b.Close(); err != nil {
			t.Error(err)
		}
	})
}

func TestProtocolMisuse(t *testing.T) {
	runOnCell(t, func(ctx *cell.Context) {
		iface, err := Open(ctx, 0, arithKernel(Polling))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := iface.Wait(); err == nil {
			t.Error("Wait with nothing in flight should fail")
		}
		if err := iface.Send(OpExit, 0); err == nil {
			t.Error("Send(OpExit) should be rejected")
		}
		w, _ := NewWrapper(ctx.Memory(), WrapperField{"in", 4}, WrapperField{"out", 4})
		if err := iface.Send(opDouble, w.Addr()); err != nil {
			t.Error(err)
		}
		if err := iface.Send(opDouble, w.Addr()); err == nil {
			t.Error("second Send while in flight should fail")
		}
		if _, err := iface.Wait(); err != nil {
			t.Error(err)
		}
		if err := iface.Close(); err != nil {
			t.Error(err)
		}
		if err := iface.Send(opDouble, w.Addr()); err == nil {
			t.Error("Send after Close should fail")
		}
		if err := w.Free(); err != nil {
			t.Error(err)
		}
	})
}

func TestUnknownOpcodeReported(t *testing.T) {
	runOnCell(t, func(ctx *cell.Context) {
		iface, err := Open(ctx, 0, arithKernel(Polling))
		if err != nil {
			t.Error(err)
			return
		}
		res, err := iface.SendAndWait(Opcode(99), 0)
		if err == nil || res != ResultUnknownOpcode {
			t.Errorf("unknown opcode: res=%#x err=%v", res, err)
		}
		if err := iface.Close(); err != nil {
			t.Error(err)
		}
	})
}

func TestCloseDrainsInFlight(t *testing.T) {
	runOnCell(t, func(ctx *cell.Context) {
		iface, err := Open(ctx, 0, arithKernel(Polling))
		if err != nil {
			t.Error(err)
			return
		}
		w, _ := NewWrapper(ctx.Memory(), WrapperField{"in", 4}, WrapperField{"out", 4})
		ByteOrder.PutUint32(w.Bytes("in"), 5)
		if err := iface.Send(opDouble, w.Addr()); err != nil {
			t.Error(err)
		}
		if err := iface.Close(); err != nil {
			t.Error(err)
		}
		if got := ByteOrder.Uint32(w.Bytes("out")); got != 10 {
			t.Errorf("drained result = %d, want 10", got)
		}
		if err := w.Free(); err != nil {
			t.Error(err)
		}
		if err := iface.Close(); err != nil {
			t.Error("second Close should be a no-op, got", err)
		}
	})
}

func TestBuildProgramValidation(t *testing.T) {
	if _, err := BuildProgram(KernelSpec{Name: "x", CodeBytes: 100}); err == nil {
		t.Error("no functions should fail")
	}
	fns := map[Opcode]KernelFunc{1: func(*spe.Context, mainmem.Addr) uint32 { return 0 }}
	if _, err := BuildProgram(KernelSpec{Name: "x", Functions: fns}); err == nil {
		t.Error("zero code size should fail")
	}
	bad := map[Opcode]KernelFunc{OpExit: fns[1]}
	if _, err := BuildProgram(KernelSpec{Name: "x", CodeBytes: 10, Functions: bad}); err == nil {
		t.Error("OpExit registration should fail")
	}
}

func TestDispatchOverheadCharged(t *testing.T) {
	// A no-op kernel invocation still takes dispatcher + mailbox time.
	noop := KernelSpec{
		Name:      "noop",
		CodeBytes: 1024,
		Functions: map[Opcode]KernelFunc{
			1: func(*spe.Context, mainmem.Addr) uint32 { return 0 },
		},
	}
	runOnCell(t, func(ctx *cell.Context) {
		iface, err := Open(ctx, 0, noop)
		if err != nil {
			t.Error(err)
			return
		}
		start := ctx.Now()
		if _, err := iface.SendAndWait(1, 0); err != nil {
			t.Error(err)
		}
		if d := ctx.Now().Sub(start); d <= 0 {
			t.Error("invocation should consume virtual time")
		} else if d > 10*sim.Microsecond {
			t.Errorf("empty invocation took %v; suspiciously slow", d)
		}
		if err := iface.Close(); err != nil {
			t.Error(err)
		}
	})
}

func TestWrapperErrors(t *testing.T) {
	mem := mainmem.New(1 << 20)
	if _, err := NewWrapper(mem); err == nil {
		t.Error("empty wrapper should fail")
	}
	if _, err := NewWrapper(mem, WrapperField{"a", 0}); err == nil {
		t.Error("zero-size field should fail")
	}
	if _, err := NewWrapper(mem, WrapperField{"a", 4}, WrapperField{"a", 4}); err == nil {
		t.Error("duplicate field should fail")
	}
	w, err := NewWrapper(mem, WrapperField{"a", 4})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown field access should panic")
			}
		}()
		w.FieldAddr("nope")
	}()
	if err := w.Free(); err != nil {
		t.Fatal(err)
	}
	if err := w.Free(); err == nil {
		t.Error("double free should fail")
	}
}

func TestWrapperLayout(t *testing.T) {
	mem := mainmem.New(1 << 20)
	w, err := NewWrapper(mem,
		WrapperField{"hdr", 4},     // padded to 16
		WrapperField{"img", 100},   // padded to 112
		WrapperField{"result", 20}, // padded to 32
	)
	if err != nil {
		t.Fatal(err)
	}
	if w.size != 16+112+32 {
		t.Fatalf("size = %d, want 160", w.size)
	}
	if uint32(w.Addr())%mainmem.AlignCacheLine != 0 {
		t.Fatalf("wrapper base %#x not cache-line aligned", uint32(w.Addr()))
	}
	for _, f := range []string{"hdr", "img", "result"} {
		if uint32(w.FieldAddr(f))%16 != 0 {
			t.Errorf("field %s at %#x not quadword aligned", f, uint32(w.FieldAddr(f)))
		}
	}
	if w.FieldAddr("img") != w.Addr()+16 || w.FieldAddr("result") != w.Addr()+128 {
		t.Fatal("field offsets wrong")
	}
	if err := w.Free(); err != nil {
		t.Fatal(err)
	}
}

func TestWrapperFloat32RoundTrip(t *testing.T) {
	mem := mainmem.New(1 << 20)
	w, err := NewWrapper(mem, WrapperField{"v", 64})
	if err != nil {
		t.Fatal(err)
	}
	in := []float32{0, 1.5, -3.25, 1e-20, 3.4e38}
	w.SetFloat32s("v", in)
	out := w.Float32s("v", len(in))
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("float round trip [%d]: %v != %v", i, in[i], out[i])
		}
	}
	if err := w.Free(); err != nil {
		t.Fatal(err)
	}
}

func TestHelpersRoundTrip(t *testing.T) {
	f := []float32{1, 2.5, -7}
	b := make([]byte, 12)
	PutFloat32s(b, f)
	got := GetFloat32s(b)
	for i := range f {
		if got[i] != f[i] {
			t.Fatalf("float helpers: %v != %v", got, f)
		}
	}
	u := []uint32{7, 0xFFFFFFFF, 0}
	bu := make([]byte, 12)
	PutUint32s(bu, u)
	gu := GetUint32s(bu)
	for i := range u {
		if gu[i] != u[i] {
			t.Fatalf("uint helpers: %v != %v", gu, u)
		}
	}
}

func TestOpenFailsOnBusySPE(t *testing.T) {
	runOnCell(t, func(ctx *cell.Context) {
		a, err := Open(ctx, 0, arithKernel(Polling))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := Open(ctx, 0, arithKernel(Polling)); err == nil ||
			!strings.Contains(err.Error(), "already running") {
			t.Errorf("second Open on same SPE: %v", err)
		}
		if err := a.Close(); err != nil {
			t.Error(err)
		}
	})
}

func TestWaitTimeout(t *testing.T) {
	// A kernel that takes 10us: a 1us wait times out (invocation stays in
	// flight), a later generous wait collects it. Both completion modes.
	for _, mode := range []CompletionMode{Polling, Interrupt} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			slow := KernelSpec{
				Name:      "slow",
				CodeBytes: 2048,
				Mode:      mode,
				Functions: map[Opcode]KernelFunc{
					1: func(ctx *spe.Context, _ mainmem.Addr) uint32 {
						ctx.ComputeCycles(32000, "slow") // 10 us
						return 7
					},
				},
			}
			runOnCell(t, func(ctx *cell.Context) {
				iface, err := Open(ctx, 0, slow)
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := iface.WaitTimeout(sim.Microsecond); err == nil {
					t.Error("WaitTimeout with nothing in flight should fail")
				}
				if err := iface.Send(1, 0); err != nil {
					t.Error(err)
					return
				}
				if _, ok, err := iface.WaitTimeout(sim.Microsecond); ok || err != nil {
					t.Errorf("1us wait: ok=%v err=%v, want timeout", ok, err)
				}
				if !iface.inFlight {
					t.Error("invocation should remain in flight after timeout")
				}
				res, ok, err := iface.WaitTimeout(100 * sim.Microsecond)
				if !ok || err != nil || res != 7 {
					t.Errorf("second wait: res=%d ok=%v err=%v", res, ok, err)
				}
				if err := iface.Close(); err != nil {
					t.Error(err)
				}
			})
		})
	}
}
