// Package spe models a Synergistic Processing Element: an SPU executing a
// loaded program against its 256 KB local store, with an MFC for DMA, the
// three hardware mailboxes (§2). Programs are Go functions that perform
// their real computation on local-store bytes and charge virtual time
// through the Context's cost-model methods.
package spe

import (
	"errors"
	"fmt"

	"cellport/internal/cost"
	"cellport/internal/eib"
	"cellport/internal/ls"
	"cellport/internal/mainmem"
	"cellport/internal/mbox"
	"cellport/internal/mfc"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// ErrSPECrashed is the typed sentinel wrapped by operations refused
// because the SPE has failed (injected crash or watchdog kill).
var ErrSPECrashed = errors.New("SPE crashed")

// Program is an SPE executable: a code-image size (checked against the
// local store) and an entry point.
type Program struct {
	// Name identifies the program in traces and errors.
	Name string
	// CodeBytes is the size of the program image in the local store.
	CodeBytes uint32
	// Main is the entry point; it runs as a simulated process. When Main
	// returns, the SPE becomes idle and may be loaded again.
	Main func(ctx *Context)
}

// SPE is one synergistic processing element.
type SPE struct {
	id     int
	engine *sim.Engine
	model  *cost.Model
	tracer *trace.Recorder // nil when untraced
	lane   string          // "SPE<id>", the trace lane

	Store       *ls.LocalStore
	MFC         *mfc.MFC
	InMbox      *mbox.Mailbox // PPE -> SPU, 4 entries
	OutMbox     *mbox.Mailbox // SPU -> PPE, 1 entry, polled
	OutIntrMbox *mbox.Mailbox // SPU -> PPE, 1 entry, interrupting

	running    bool
	program    string
	proc       *sim.Proc
	doneQ      *sim.Queue
	failed     bool
	failReason string
	busyTime   sim.Duration
	dmaWait    sim.Duration
	mboxWait   sim.Duration
}

// New builds an SPE attached to the shared bus and main memory.
func New(e *sim.Engine, id int, bus *eib.Bus, mem *mainmem.Memory, model *cost.Model, tracer *trace.Recorder) *SPE {
	store := ls.New()
	name := fmt.Sprintf("SPE%d", id)
	return &SPE{
		id:          id,
		engine:      e,
		model:       model,
		tracer:      tracer,
		lane:        name,
		Store:       store,
		MFC:         mfc.New(e, bus, mem, store, eib.SPEPort(id)),
		InMbox:      mbox.NewMailbox(e, name+" in-mbox", mbox.InboundDepth),
		OutMbox:     mbox.NewMailbox(e, name+" out-mbox", mbox.OutboundDepth),
		OutIntrMbox: mbox.NewMailbox(e, name+" out-intr-mbox", mbox.OutboundDepth),
		doneQ:       sim.NewQueue(name + " done"),
	}
}

// BusyTime reports accumulated compute time.
func (s *SPE) BusyTime() sim.Duration { return s.busyTime }

// DMAWait reports accumulated time blocked on DMA tag completion.
func (s *SPE) DMAWait() sim.Duration { return s.dmaWait }

// MboxWait reports accumulated time blocked on mailboxes.
func (s *SPE) MboxWait() sim.Duration { return s.mboxWait }

// Failed reports whether the SPE has crashed.
func (s *SPE) Failed() bool { return s.failed }

// Fail crashes the SPE: the running program (if any) is killed at its next
// scheduling point, queued and in-flight DMA is aborted, and the SPE
// refuses all further program loads. Waiters on WaitStopped are released.
// Failing an already-failed SPE is a no-op.
func (s *SPE) Fail(reason string) {
	if s.failed {
		return
	}
	s.failed = true
	s.failReason = reason
	s.tracer.Instant(s.lane, s.engine.Now(), "fail: "+reason)
	if s.proc != nil {
		s.proc.Kill()
		s.proc = nil
	}
	s.MFC.Abort()
	s.running = false
	s.program = ""
	s.doneQ.WakeAll(s.engine)
}

// Load checks the program image against the local store, loads it, and
// starts Main as a simulated thread (the spe_create_thread analog).
func (s *SPE) Load(prog Program) error {
	if s.failed {
		return fmt.Errorf("spe%d: %w (%s)", s.id, ErrSPECrashed, s.failReason)
	}
	if s.running {
		return fmt.Errorf("spe%d: already running %q", s.id, s.program)
	}
	if prog.Main == nil {
		return fmt.Errorf("spe%d: program %q has no entry point", s.id, prog.Name)
	}
	if err := s.Store.LoadProgram(prog.CodeBytes); err != nil {
		return fmt.Errorf("spe%d: loading %q: %w", s.id, prog.Name, err)
	}
	s.running = true
	s.program = prog.Name
	s.proc = s.engine.Spawn(fmt.Sprintf("SPE%d:%s", s.id, prog.Name), func(p *sim.Proc) {
		ctx := &Context{spe: s, p: p}
		prog.Main(ctx)
		s.running = false
		s.proc = nil
		s.doneQ.WakeAll(s.engine)
	})
	return nil
}

// WaitStopped blocks p until the loaded program returns (the
// spe_wait analog).
func (s *SPE) WaitStopped(p *sim.Proc) {
	p.WaitFor(s.doneQ, func() bool { return !s.running })
}

// Context is the execution environment handed to an SPE program's Main.
// All methods must be called from within Main (they run on the program's
// simulated process).
type Context struct {
	spe *SPE
	p   *sim.Proc
}

// Store returns the SPE's local store.
func (c *Context) Store() *ls.LocalStore { return c.spe.Store }

// Model returns the SPU cost model (for kernels that charge derived
// cycle counts directly).
func (c *Context) Model() *cost.Model { return c.spe.model }

// --- computation ------------------------------------------------------

func (c *Context) charge(d sim.Duration, label string) {
	if d <= 0 {
		return
	}
	start := c.p.Now()
	c.p.Sleep(d)
	c.spe.busyTime += d
	c.spe.tracer.Span(c.spe.lane, start, c.p.Now(), trace.KindCompute, label)
}

// ComputeScalar charges time for n scalar operations on the SPU.
func (c *Context) ComputeScalar(n float64, label string) {
	c.charge(c.spe.model.ScalarOps(n), label)
}

// ComputeSIMD charges time for n element-operations vectorized at width w
// with the given efficiency.
func (c *Context) ComputeSIMD(n float64, w cost.Width, eff float64, label string) {
	c.charge(c.spe.model.SIMDOps(n, w, eff), label)
}

// ComputeBranches charges misprediction stalls for n branches; a negative
// rate uses the SPU default (static prediction).
func (c *Context) ComputeBranches(n, mispredictRate float64, label string) {
	c.charge(c.spe.model.Branches(n, mispredictRate), label)
}

// ComputeCycles charges raw cycles (for fixed-cost sequences).
func (c *Context) ComputeCycles(cycles float64, label string) {
	c.charge(c.spe.model.CyclesToDuration(cycles), label)
}

// --- mailboxes --------------------------------------------------------

// ReadInMbox blocks until the PPE writes a word (spu_read_in_mbox).
func (c *Context) ReadInMbox() uint32 {
	start := c.p.Now()
	v := c.spe.InMbox.Read(c.p)
	c.spe.mboxWait += c.p.Now().Sub(start)
	return v
}

// WriteOutMbox posts a word to the polled outbound mailbox
// (spu_write_out_mbox), blocking while it is full.
func (c *Context) WriteOutMbox(v uint32) { c.spe.OutMbox.Write(c.p, v) }

// WriteOutIntrMbox posts a word to the interrupting outbound mailbox
// (spu_write_out_intr_mbox).
func (c *Context) WriteOutIntrMbox(v uint32) { c.spe.OutIntrMbox.Write(c.p, v) }

// --- DMA ---------------------------------------------------------------

// Get enqueues a main-memory -> LS DMA under tag.
func (c *Context) Get(lsa ls.Addr, ea mainmem.Addr, size uint32, tag int) error {
	return c.spe.MFC.Get(c.p, lsa, ea, size, tag)
}

// Put enqueues an LS -> main-memory DMA under tag.
func (c *Context) Put(lsa ls.Addr, ea mainmem.Addr, size uint32, tag int) error {
	return c.spe.MFC.Put(c.p, lsa, ea, size, tag)
}

// GetList enqueues a gather DMA list under tag.
func (c *Context) GetList(lsa ls.Addr, list []mfc.ListElement, tag int) error {
	return c.spe.MFC.GetList(c.p, lsa, list, tag)
}

// PutList enqueues a scatter DMA list under tag.
func (c *Context) PutList(lsa ls.Addr, list []mfc.ListElement, tag int) error {
	return c.spe.MFC.PutList(c.p, lsa, list, tag)
}

// DMAError reports the MFC's sticky transfer-error flag (a corrupted
// delivery since the last clear).
func (c *Context) DMAError() bool { return c.spe.MFC.TransferError() }

// ClearDMAError resets the MFC's sticky transfer-error flag.
func (c *Context) ClearDMAError() { c.spe.MFC.ClearTransferError() }

// WaitTag blocks until tag's commands complete, accounting the stall.
func (c *Context) WaitTag(tag int) {
	start := c.p.Now()
	c.spe.MFC.WaitTag(c.p, tag)
	if d := c.p.Now().Sub(start); d > 0 {
		c.spe.dmaWait += d
		c.spe.tracer.Span(c.spe.lane, start, c.p.Now(), trace.KindDMA, "tag-wait")
	}
}

// WaitTagMask blocks until all tags in mask complete.
func (c *Context) WaitTagMask(mask uint32) {
	start := c.p.Now()
	c.spe.MFC.WaitTagMask(c.p, mask)
	if d := c.p.Now().Sub(start); d > 0 {
		c.spe.dmaWait += d
	}
}

// WaitAllDMA drains the MFC queue.
func (c *Context) WaitAllDMA() {
	start := c.p.Now()
	c.spe.MFC.WaitAll(c.p)
	if d := c.p.Now().Sub(start); d > 0 {
		c.spe.dmaWait += d
	}
}
