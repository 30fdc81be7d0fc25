package mfc

import (
	"errors"
	"strings"
	"testing"

	"cellport/internal/sim"
)

// hookOnNth returns a fault hook that fires act on the nth sampled
// command (1-based) and FaultNone otherwise.
func hookOnNth(n int, act FaultAction) func() FaultAction {
	count := 0
	return func() FaultAction {
		count++
		if count == n {
			return act
		}
		return FaultNone
	}
}

// TestFaultDropHangsTagAbortReleases: a dropped DMA command leaves its
// tag pending forever (the hung-tag failure mode); a WaitTag on it
// deadlocks deterministically, and MFC.Abort releases the waiter.
func TestFaultDropHangsTagAbortReleases(t *testing.T) {
	r := newRig()
	copy(r.mem.Bytes(0, 64), []byte(strings.Repeat("x", 64)))
	r.m.SetFaultHook(hookOnNth(1, FaultDrop))
	released := false
	e := r.e
	var spu *sim.Proc
	spu = e.Spawn("spu", func(p *sim.Proc) {
		if err := r.m.Get(p, 0x1000, 0, 64, 3); err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		r.m.WaitTag(p, 3) // hangs: the command was dropped
		released = true
	})
	_ = spu
	e.Spawn("supervisor", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		if r.m.tagPending[3] != 1 {
			t.Errorf("tag 3 pending = %d after drop, want 1 (hung)", r.m.tagPending[3])
		}
		r.m.Abort()
	})
	r.run(t)
	if !released {
		t.Fatal("Abort did not release the tag waiter")
	}
	if r.m.tagPending[3] != 0 {
		t.Errorf("tag 3 pending = %d after Abort, want 0", r.m.tagPending[3])
	}
	// The dropped get never moved data.
	if got := r.st.Bytes(0x1000, 64); got[0] == 'x' {
		t.Error("dropped DMA still delivered data")
	}
}

// TestFaultDropWithoutAbortIsTypedDeadlock: with no supervisor, the hung
// tag surfaces as the engine's typed deadlock naming the blocked SPU —
// not a wedged test binary.
func TestFaultDropWithoutAbortIsTypedDeadlock(t *testing.T) {
	r := newRig()
	r.m.SetFaultHook(hookOnNth(1, FaultDrop))
	r.e.Spawn("spu", func(p *sim.Proc) {
		if err := r.m.Get(p, 0x1000, 0, 64, 0); err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		r.m.WaitTag(p, 0)
	})
	err := r.e.Run()
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v (%T), want *sim.DeadlockError", err, err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0].Name != "spu" {
		t.Errorf("deadlock names %v, want the blocked SPU", dl.Blocked)
	}
}

// TestFaultCorruptFlipsPayloadAndLatches: a corrupted get delivers the
// payload XOR 0xA5 and latches the sticky transfer-error flag until
// cleared.
func TestFaultCorruptFlipsPayloadAndLatches(t *testing.T) {
	r := newRig()
	src := r.mem.Bytes(0, 64)
	for i := range src {
		src[i] = byte(i)
	}
	r.m.SetFaultHook(hookOnNth(2, FaultCorrupt))
	r.e.Spawn("spu", func(p *sim.Proc) {
		// Command 1: clean. Command 2: corrupted.
		if err := r.m.Get(p, 0x1000, 0, 64, 0); err != nil {
			t.Errorf("Get 1: %v", err)
		}
		if err := r.m.Get(p, 0x2000, 0, 64, 0); err != nil {
			t.Errorf("Get 2: %v", err)
		}
		r.m.WaitTag(p, 0)
	})
	r.run(t)
	clean := r.st.Bytes(0x1000, 64)
	dirty := r.st.Bytes(0x2000, 64)
	for i := 0; i < 64; i++ {
		if clean[i] != byte(i) {
			t.Fatalf("clean command corrupted at %d: %#x", i, clean[i])
		}
		if dirty[i] != byte(i)^0xA5 {
			t.Fatalf("corrupt byte %d = %#x, want %#x", i, dirty[i], byte(i)^0xA5)
		}
	}
	if !r.m.TransferError() {
		t.Fatal("TransferError not latched after corruption")
	}
	r.m.ClearTransferError()
	if r.m.TransferError() {
		t.Fatal("ClearTransferError did not reset the flag")
	}
}

// TestBoundsFaultIsErrorNotPanic: garbage addresses (the downstream
// effect of a corrupted header) are rejected as errors at the issue site
// — the MFC-exception analog — instead of panicking the simulator.
func TestBoundsFaultIsErrorNotPanic(t *testing.T) {
	r := newRig()
	r.e.Spawn("spu", func(p *sim.Proc) {
		if err := r.m.Get(p, 0x3FFF0, 0, 64, 0); err == nil {
			t.Error("LS window past 256 KB accepted")
		}
		if err := r.m.Get(p, 0, 0x7FFFFF0, 64, 0); err == nil {
			t.Error("EA window past main memory accepted")
		}
		if err := r.m.Put(p, 0, 0x7FFFFF0, 64, 0); err == nil {
			t.Error("Put past main memory accepted")
		}
		if err := r.m.GetList(p, 0, []ListElement{{EA: 0x7FFFFF0, Size: 64}}, 0); err == nil {
			t.Error("list element past main memory accepted")
		}
	})
	r.run(t)
	if r.m.tagPending[0] != 0 {
		t.Errorf("rejected commands left tag 0 pending = %d", r.m.tagPending[0])
	}
}

// TestAbortCancelsQueuedStarts: commands still inside their startup
// latency when the SPE dies never reach the bus or move bytes.
func TestAbortCancelsQueuedStarts(t *testing.T) {
	r := newRig()
	copy(r.mem.Bytes(0, 64), []byte(strings.Repeat("y", 64)))
	r.e.Spawn("spu", func(p *sim.Proc) {
		if err := r.m.Get(p, 0x1000, 0, 64, 0); err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		r.m.Abort() // dies immediately, before StartupLatency elapses
		r.m.WaitTag(p, 0)
	})
	r.run(t)
	if got := r.st.Bytes(0x1000, 64); got[0] == 'y' {
		t.Error("aborted command still delivered data")
	}
	if r.bus.Transfers() != 0 {
		t.Errorf("aborted command reached the bus: %d transfers", r.bus.Transfers())
	}
}
