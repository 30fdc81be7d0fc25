package mfc

import (
	"bytes"
	"slices"
	"testing"

	"cellport/internal/ls"
	"cellport/internal/mainmem"
	"cellport/internal/sim"
)

// commandKind issues one command of a kind on a rig, under tag 1.
type commandKind struct {
	name  string
	issue func(p *sim.Proc) error
}

// commandKinds returns a get, a put and a three-element list of each
// direction over one 4 KB window.
func commandKinds(r *rig) []commandKind {
	ea := r.mem.MustAlloc(4096, 128)
	lsa := r.st.MustAlloc(4096, 128)
	list := []ListElement{{ea, 1024}, {ea + 2048, 512}, {ea + 3072, 1024}}
	return []commandKind{
		{"get", func(p *sim.Proc) error { return r.m.Get(p, lsa, ea, 4096, 1) }},
		{"put", func(p *sim.Proc) error { return r.m.Put(p, lsa, ea, 4096, 1) }},
		{"get-list", func(p *sim.Proc) error { return r.m.GetList(p, lsa, list, 1) }},
		{"put-list", func(p *sim.Proc) error { return r.m.PutList(p, lsa, list, 1) }},
	}
}

// TestSteadyStateCommandsAllocateNothing: once an MFC has run a command
// of each kind, issuing another and waiting for its tag allocates
// nothing: the command struct, its pieces, its snapshot and its bus
// transfer all come back from the free list.
func TestSteadyStateCommandsAllocateNothing(t *testing.T) {
	r := newRig()
	kinds := commandKinds(r)
	allocs := make([]float64, len(kinds))
	r.e.Spawn("spu", func(p *sim.Proc) {
		for i, k := range kinds {
			command := func() {
				if err := k.issue(p); err != nil {
					t.Errorf("%s: %v", k.name, err)
				}
				r.m.WaitTag(p, 1)
			}
			command() // warm: the first command of a kind grows its buffers
			allocs[i] = testing.AllocsPerRun(50, command)
		}
	})
	r.run(t)
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; counts not compared")
	}
	for i, k := range kinds {
		if allocs[i] != 0 {
			t.Errorf("a steady-state %s allocates %v objects per command, want 0", k.name, allocs[i])
		}
	}
}

// TestPutsInFlightKeepIssueTimeBytes: two puts from one LS window are in
// flight together, the second issued while the first is on the bus, and
// the window is overwritten after each issue. Each must deliver the bytes
// the window held when it was issued, also when both commands come from
// the free list.
func TestPutsInFlightKeepIssueTimeBytes(t *testing.T) {
	const size = MaxTransfer // 640 ns on an idle bus
	r := newRig()
	lsa := r.st.MustAlloc(size, 128)
	window := r.st.Bytes(lsa, size)
	ea1 := r.mem.MustAlloc(size, 128)
	ea2 := r.mem.MustAlloc(size, 128)
	list := func(ea mainmem.Addr) []ListElement {
		return []ListElement{{ea, size / 4}, {ea + size/4, size / 2}, {ea + 3*size/4, size / 4}}
	}
	puts := []struct {
		name string
		put  func(p *sim.Proc, ea mainmem.Addr) error
	}{
		{"put", func(p *sim.Proc, ea mainmem.Addr) error { return r.m.Put(p, lsa, ea, size, 2) }},
		{"put-list", func(p *sim.Proc, ea mainmem.Addr) error { return r.m.PutList(p, lsa, list(ea), 2) }},
	}
	r.e.Spawn("spu", func(p *sim.Proc) {
		for round := 0; round < 3; round++ { // round 0 makes the commands, later rounds reuse them
			for _, k := range puts {
				fill := func(b byte) []byte {
					for i := range window {
						window[i] = b + byte(i)
					}
					return bytes.Clone(window)
				}
				want1 := fill(byte(10 * round))
				if err := k.put(p, ea1); err != nil {
					t.Errorf("%s: %v", k.name, err)
					return
				}
				p.Sleep(200 * sim.Nanosecond) // the first put is on the bus
				want2 := fill(byte(10*round + 100))
				if err := k.put(p, ea2); err != nil {
					t.Errorf("%s: %v", k.name, err)
					return
				}
				if r.m.tagPending[2] != 2 {
					t.Errorf("round %d %s: %d commands pending, want both in flight", round, k.name, r.m.tagPending[2])
					return
				}
				fill(0xEE)
				r.m.WaitTag(p, 2)
				if !bytes.Equal(r.mem.Bytes(ea1, size), want1) || !bytes.Equal(r.mem.Bytes(ea2, size), want2) {
					t.Errorf("round %d %s: a put delivered bytes other than its issue-time snapshot", round, k.name)
					return
				}
			}
		}
	})
	r.run(t)
}

// TestAbortedCommandNeverRecycled: a list command aborted between two of
// its pieces is dropped. Later commands on the same MFC run to
// completion without ever taking it from the free list.
func TestAbortedCommandNeverRecycled(t *testing.T) {
	r := newRig()
	ea := r.mem.MustAlloc(4*MaxTransfer, 128)
	lsa := r.st.MustAlloc(4*MaxTransfer, 128)
	var list []ListElement
	for i := 0; i < 4; i++ {
		list = append(list, ListElement{ea + mainmem.Addr(i*MaxTransfer), MaxTransfer})
	}
	var aborted *cmd
	r.e.Spawn("spu", func(p *sim.Proc) {
		if err := r.m.GetList(p, lsa, list, 4); err != nil {
			t.Errorf("GetList: %v", err)
		}
		r.m.WaitTag(p, 4) // released by the abort
	})
	r.e.Spawn("supervisor", func(p *sim.Proc) {
		// A 16 KB piece is 640 ns on an idle bus, so the first has landed
		// and the second is moving.
		p.Sleep(sim.Microsecond)
		if len(r.m.onBus) != 1 {
			t.Errorf("%d commands on the bus at the abort, want 1", len(r.m.onBus))
			return
		}
		aborted = r.m.onBus[0]
		if aborted.next == 0 || aborted.next == len(list)-1 {
			t.Errorf("aborted at piece %d of %d, want between the first and the last", aborted.next, len(list))
			return
		}
		r.m.Abort()
		for i := 0; i < 3; i++ {
			if err := r.m.Get(p, lsa, ea, 256, 0); err != nil {
				t.Errorf("Get after Abort: %v", err)
				return
			}
			if err := r.m.GetList(p, lsa, list[:2], 1); err != nil {
				t.Errorf("GetList after Abort: %v", err)
				return
			}
			r.m.WaitAll(p)
		}
	})
	r.run(t)
	if aborted == nil {
		t.Fatal("no command was on the bus")
	}
	if slices.Contains(r.m.free, aborted) {
		t.Error("the aborted command is on the free list")
	}
	if len(r.m.free) == 0 {
		t.Error("no command after the abort was recycled")
	}
}

// TestDroppedCommandStillLeaksItsSlot: a FaultDrop command keeps its
// queue slot and is never recycled; the command after it runs and is.
func TestDroppedCommandStillLeaksItsSlot(t *testing.T) {
	r := newRig()
	r.m.SetFaultHook(hookOnNth(1, FaultDrop))
	lsa := ls.Addr(0x1000)
	r.e.Spawn("spu", func(p *sim.Proc) {
		if err := r.m.Get(p, lsa, 0, 64, 3); err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		if len(r.m.free) != 0 || len(r.m.starting) != 0 {
			t.Errorf("dropped command: %d free, %d starting, want 0 and 0", len(r.m.free), len(r.m.starting))
		}
		if err := r.m.Get(p, lsa, 0, 64, 4); err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		r.m.WaitTag(p, 4)
	})
	r.run(t)
	if got := r.m.slots.Available(); got != QueueDepth-1 {
		t.Errorf("%d queue slots free, want %d: the dropped command keeps one", got, QueueDepth-1)
	}
	if r.m.tagPending[3] != 1 {
		t.Errorf("tag 3 pending = %d, want 1 (hung)", r.m.tagPending[3])
	}
	if len(r.m.free) != 1 {
		t.Errorf("%d commands on the free list, want 1: only the completed one", len(r.m.free))
	}
}

// BenchmarkCommand prices one command and its tag wait on a warm MFC,
// per kind: host time and allocations, with the simulation inside.
func BenchmarkCommand(b *testing.B) {
	for i, k := range commandKinds(newRig()) {
		b.Run(k.name, func(b *testing.B) {
			r := newRig()
			issue := commandKinds(r)[i].issue
			r.e.Spawn("spu", func(p *sim.Proc) {
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if err := issue(p); err != nil {
						b.Error(err)
						return
					}
					r.m.WaitTag(p, 1)
				}
			})
			if err := r.e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
