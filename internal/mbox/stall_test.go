package mbox

import (
	"errors"
	"testing"

	"cellport/internal/sim"
)

// TestWriterStallOnCrashedReader is the capacity-edge hazard: a writer
// blocked on a full 4-deep inbound mailbox whose reader has crashed must
// surface as a typed deadlock from the engine — with the writer and its
// wait cause named — instead of hanging the test binary forever.
func TestWriterStallOnCrashedReader(t *testing.T) {
	e := sim.NewEngine()
	m := newMailbox(e, "spe0 in-mbox", InboundDepth)
	var reader *sim.Proc
	reader = e.Spawn("reader", func(p *sim.Proc) {
		m.Read(p) // consume one word, then wedge forever
		var wedged sim.Queue
		wedged.Init("wedged")
		p.Wait(&wedged)
	})
	e.Spawn("writer", func(p *sim.Proc) {
		for i := uint32(0); i < uint32(InboundDepth)+2; i++ {
			m.Write(p, i) // fills the FIFO, then blocks on not-full
		}
	})
	e.Spawn("watchdog", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		reader.Kill() // the crash: the reader will never drain the FIFO
	})
	err := e.Run()
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v (%T), want *sim.DeadlockError", err, err)
	}
	found := false
	for _, b := range dl.Blocked {
		if b.Name == "writer" {
			found = true
			if b.Queue != "spe0 in-mbox not-full" {
				t.Errorf("writer blocked on %q, want the mailbox not-full queue", b.Queue)
			}
		}
	}
	if !found {
		t.Errorf("deadlock report %v does not name the stalled writer", dl.Blocked)
	}
	if m.Count() != InboundDepth {
		t.Errorf("FIFO holds %d entries at deadlock, want full (%d)", m.Count(), InboundDepth)
	}
}

// TestWriteDelayStallsInVirtualTime: an installed write-delay hook (the
// mbox-stall fault) pushes the write later in virtual time but keeps the
// data path intact.
func TestWriteDelayStallsInVirtualTime(t *testing.T) {
	e := sim.NewEngine()
	m := newMailbox(e, "in", InboundDepth)
	calls := 0
	m.SetWriteDelay(func() sim.Duration {
		calls++
		if calls == 2 {
			return 7 * sim.Microsecond
		}
		return 0
	})
	var wroteAt [3]sim.Time
	var got []uint32
	e.Spawn("writer", func(p *sim.Proc) {
		for i := uint32(0); i < 3; i++ {
			m.Write(p, i)
			wroteAt[i] = p.Now()
		}
	})
	e.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, m.Read(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wroteAt[0] != 0 || wroteAt[1] != sim.Time(7*sim.Microsecond) || wroteAt[2] != wroteAt[1] {
		t.Errorf("write times = %v, want only the second stalled by 7us", wroteAt)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("reader saw %v, want in-order values despite the stall", got)
	}
}
