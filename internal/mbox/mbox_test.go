package mbox

import (
	"reflect"
	"testing"
	"testing/quick"

	"cellport/internal/sim"
)

// newMailbox returns a mailbox whose wait queues are labelled after name.
func newMailbox(e *sim.Engine, name string, capacity int) *Mailbox {
	m := new(Mailbox)
	m.Init(e, LabelsFor(name), capacity)
	return m
}

func TestMailboxFIFO(t *testing.T) {
	e := sim.NewEngine()
	m := newMailbox(e, "in", InboundDepth)
	var got []uint32
	e.Spawn("writer", func(p *sim.Proc) {
		for _, v := range []uint32{10, 20, 30} {
			m.Write(p, v)
		}
	})
	e.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(sim.Nanosecond)
		for i := 0; i < 3; i++ {
			got = append(got, m.Read(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uint32{10, 20, 30}) {
		t.Fatalf("got %v, want FIFO order", got)
	}
	if m.Writes() != 3 || m.Count() != 0 {
		t.Fatalf("stats writes=%d count=%d, want 3/0", m.Writes(), m.Count())
	}
}

func TestMailboxWriterBlocksWhenFull(t *testing.T) {
	e := sim.NewEngine()
	m := newMailbox(e, "in", 2)
	var fifthWriteAt sim.Time
	e.Spawn("writer", func(p *sim.Proc) {
		for i := uint32(0); i < 3; i++ {
			m.Write(p, i) // third write must block until the read below
		}
		fifthWriteAt = p.Now()
	})
	e.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(5 * sim.Nanosecond)
		m.Read(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fifthWriteAt != sim.Time(5*sim.Nanosecond) {
		t.Fatalf("blocked write completed at %v, want 5ns", fifthWriteAt)
	}
}

func TestMailboxReaderBlocksWhenEmpty(t *testing.T) {
	e := sim.NewEngine()
	m := newMailbox(e, "out", OutboundDepth)
	var readAt sim.Time
	var val uint32
	e.Spawn("reader", func(p *sim.Proc) {
		val = m.Read(p)
		readAt = p.Now()
	})
	e.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(9 * sim.Nanosecond)
		m.Write(p, 77)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readAt != sim.Time(9*sim.Nanosecond) || val != 77 {
		t.Fatalf("read %d at %v, want 77 at 9ns", val, readAt)
	}
}

func TestWaitNotEmptyDoesNotConsume(t *testing.T) {
	e := sim.NewEngine()
	m := newMailbox(e, "intr", 1)
	var observed uint32
	e.Spawn("ppe", func(p *sim.Proc) {
		if !m.WaitNotEmpty(p, sim.Forever) {
			t.Error("WaitNotEmpty(Forever) reported no entry")
		}
		observed = m.Read(p) // still there
	})
	e.Spawn("spu", func(p *sim.Proc) {
		p.Sleep(sim.Nanosecond)
		m.Write(p, 42)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if observed != 42 {
		t.Fatalf("observed %d, want 42", observed)
	}
}

// Property: for any write sequence, a single reader drains values in
// exactly the written order, regardless of FIFO capacity pressure.
func TestPropMailboxPreservesOrder(t *testing.T) {
	f := func(vals []uint32, capRaw uint8) bool {
		capacity := int(capRaw%4) + 1
		e := sim.NewEngine()
		m := newMailbox(e, "prop", capacity)
		var got []uint32
		e.Spawn("w", func(p *sim.Proc) {
			for _, v := range vals {
				m.Write(p, v)
			}
		})
		e.Spawn("r", func(p *sim.Proc) {
			for range vals {
				got = append(got, m.Read(p))
				p.Sleep(sim.Nanosecond)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return reflect.DeepEqual(got, append([]uint32(nil), vals...)) ||
			(len(vals) == 0 && len(got) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
