// Package mbox models the Cell's PPE↔SPE small-message hardware: per-SPE
// mailboxes (a 4-entry inbound FIFO written by the PPE, a 1-entry outbound
// FIFO and a 1-entry outbound-interrupt FIFO written by the SPU). These are
// the channels the paper's SendAndWait protocol (§3.5, Listing 3) is built
// on.
package mbox

import "cellport/internal/sim"

// Capacities of the hardware FIFOs.
const (
	InboundDepth  = 4
	OutboundDepth = 1
)

// Mailbox is a fixed-capacity 32-bit FIFO with blocking semantics on both
// sides, in virtual time.
type Mailbox struct {
	engine   *sim.Engine
	name     string
	capacity int
	fifo     []uint32
	notEmpty *sim.Queue
	notFull  *sim.Queue
	// writeDelay, when set, stalls each blocking Write by the returned
	// duration before it enqueues (deterministic fault injection).
	writeDelay func() sim.Duration

	writes uint64
	peak   int // occupancy high-water mark
}

// SetWriteDelay installs (or clears, with nil) the per-write stall hook.
func (m *Mailbox) SetWriteDelay(h func() sim.Duration) { m.writeDelay = h }

// NewMailbox returns a mailbox with the given entry capacity.
func NewMailbox(e *sim.Engine, name string, capacity int) *Mailbox {
	if capacity <= 0 {
		panic("mbox: capacity must be positive")
	}
	return &Mailbox{
		engine:   e,
		name:     name,
		capacity: capacity,
		notEmpty: sim.NewQueue(name + " not-empty"),
		notFull:  sim.NewQueue(name + " not-full"),
	}
}

// Count reports the number of queued entries (the spe_stat_* analog).
func (m *Mailbox) Count() int { return len(m.fifo) }

// Write enqueues v, blocking the calling process until space is available.
func (m *Mailbox) Write(p *sim.Proc, v uint32) {
	if m.writeDelay != nil {
		if d := m.writeDelay(); d > 0 {
			p.Sleep(d)
		}
	}
	p.WaitFor(m.notFull, func() bool { return len(m.fifo) < m.capacity })
	m.fifo = append(m.fifo, v)
	m.writes++
	m.notePeak()
	m.notEmpty.WakeAll(m.engine)
}

func (m *Mailbox) notePeak() {
	if len(m.fifo) > m.peak {
		m.peak = len(m.fifo)
	}
}

// Read dequeues the oldest entry, blocking the calling process until one
// is available.
func (m *Mailbox) Read(p *sim.Proc) uint32 {
	p.WaitFor(m.notEmpty, func() bool { return len(m.fifo) > 0 })
	v := m.fifo[0]
	copy(m.fifo, m.fifo[1:])
	m.fifo = m.fifo[:len(m.fifo)-1]
	m.notFull.WakeAll(m.engine)
	return v
}

// WaitNotEmpty blocks until the mailbox has at least one entry, without
// consuming it, or until d of virtual time passes (sim.Forever: no
// limit); it reports whether an entry is available.
func (m *Mailbox) WaitNotEmpty(p *sim.Proc, d sim.Duration) bool {
	return p.WaitForTimeout(m.notEmpty, d, func() bool { return len(m.fifo) > 0 })
}

// Writes reports the cumulative number of successful writes.
func (m *Mailbox) Writes() uint64 { return m.writes }

// Peak reports the occupancy high-water mark over the mailbox's lifetime.
func (m *Mailbox) Peak() int { return m.peak }
