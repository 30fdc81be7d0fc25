// Package cell assembles the simulated Cell Broadband Engine: one PPE,
// eight SPEs (configurable), the EIB, and main memory, and provides the
// PPE-side programming interface the paper's SPEInterface stub builds on
// (the libspe analogs: loading SPE programs and mailbox access).
package cell

import (
	"fmt"
	"sync"

	"cellport/internal/cost"
	"cellport/internal/eib"
	"cellport/internal/fault"
	"cellport/internal/ls"
	"cellport/internal/mainmem"
	"cellport/internal/metrics"
	"cellport/internal/mfc"
	"cellport/internal/sim"
	"cellport/internal/spe"
	"cellport/internal/trace"
)

// Config describes a machine instance.
type Config struct {
	NumSPEs    int
	MemorySize uint32
	Bus        eib.Config
	PPEModel   *cost.Model
	// Tracer, when non-nil, records the machine's activity spans and
	// fault instants. A nil recorder is untraced: no label is formatted.
	Tracer *trace.Recorder
	// Metrics, when non-nil, is filled after the run with the machine's
	// counters (per-SPE time split, MFC histograms, EIB shares; see
	// HarvestMetrics). The components keep those counters either way, so
	// a registry never changes the run: no engine event, no virtual time,
	// the same replay fingerprint (EventCount).
	Metrics *metrics.Registry
	// PollInterval is the PPE's polling period in SendAndWait-style busy
	// loops (spe_stat_out_mbox spin).
	PollInterval sim.Duration
}

// DefaultConfig returns a standard 8-SPE, 256 MB machine.
func DefaultConfig() Config {
	return Config{
		NumSPEs:      8,
		MemorySize:   256 << 20,
		Bus:          eib.DefaultConfig(),
		PPEModel:     cost.NewPPE(),
		PollInterval: 250 * sim.Nanosecond,
	}
}

// mboxAccessCost is PPE time per MMIO mailbox access; mailbox reads and
// writes from the PPE cross the bus and are not cheap.
const mboxAccessCost = 50 * sim.Nanosecond

// speModel is every SPE's cost model, shared read-only by all machines.
var speModel = cost.NewSPE()

// Machine is a simulated Cell B.E.
type Machine struct {
	cfg    Config
	Engine *sim.Engine
	Bus    *eib.Bus
	Memory *mainmem.Memory
	SPEs   []*spe.SPE
	tracer *trace.Recorder
}

// parts are a machine's components, which outlive the Machine handle
// that New wraps them in.
type parts struct {
	engine *sim.Engine
	bus    *eib.Bus
	memory *mainmem.Memory
	spes   []*spe.SPE
}

// shape is what released parts must match to be handed out again: the
// components a configuration sizes.
type shape struct {
	spes int
	mem  uint32
}

// pool holds the released parts of each shape. Like internal/backing's
// arrays, it never holds more machines of a shape than were live at
// once, so it needs no bound.
var (
	poolMu sync.Mutex
	pool   = map[shape][]parts{}
)

// New builds a machine from the configuration. The parts of a machine of
// the same shape (NumSPEs and MemorySize) that an earlier run released
// are reset and handed out again in a new Machine, so a run on them is
// identical to one on new parts: everything the configuration sets is
// taken from cfg, and every clock, counter, fault hook and memory byte
// starts at zero.
func New(cfg Config) *Machine {
	if cfg.NumSPEs <= 0 {
		panic("cell: need at least one SPE")
	}
	p, ok := take(shape{cfg.NumSPEs, cfg.MemorySize})
	if ok {
		p.reset(cfg)
	} else {
		e := sim.NewEngine()
		bus := eib.New(e, cfg.Bus)
		mem := mainmem.New(cfg.MemorySize)
		p = parts{engine: e, bus: bus, memory: mem, spes: make([]*spe.SPE, cfg.NumSPEs)}
		for i := range p.spes {
			p.spes[i] = spe.New(e, i, bus, mem, speModel, cfg.Tracer)
		}
	}
	if cfg.Tracer != nil {
		for i, s := range p.spes {
			s.MFC.SetTracer(cfg.Tracer, fmt.Sprintf("MFC%d", i))
		}
	}
	return &Machine{cfg: cfg, Engine: p.engine, Bus: p.bus, Memory: p.memory, SPEs: p.spes, tracer: cfg.Tracer}
}

// take removes released parts of shape sh from the pool; ok is false when
// there are none.
func take(sh shape) (p parts, ok bool) {
	poolMu.Lock()
	defer poolMu.Unlock()
	list := pool[sh]
	n := len(list)
	if n == 0 {
		return parts{}, false
	}
	p = list[n-1]
	list[n-1] = parts{}
	pool[sh] = list[:n-1]
	return p, true
}

// reset returns released parts to the state New leaves new ones in,
// configured by cfg: engine (clock, event count), bus, main memory and
// every SPE back at time zero, each keeping the capacity it grew to.
func (p parts) reset(cfg Config) {
	p.engine.Reset()
	p.bus.Reset(cfg.Bus)
	p.memory.Clear()
	for _, s := range p.spes {
		s.Reset(cfg.Tracer)
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Release hands the machine's parts back for a later New of the same
// shape to reset and reuse: engine, bus, main memory and SPEs with their
// local stores, MFC command structs, mailboxes and wait queues. The
// machine must not be used afterwards: its exported fields are nil and
// its methods panic. A later New wraps the parts in a new Machine, so a
// second Release of this one is a no-op, however the parts are used by
// then. Parts that cannot be reset are not reused: those of an engine
// that still holds a live process (released inside RunMain, or with a
// program loaded but never run), and those whose main memory or a local
// store was already released on its own. Their memories still live
// return to the pool internal/backing keeps. Release is optional: an
// unreleased machine is simply garbage-collected.
func (m *Machine) Release() {
	if m.Engine == nil {
		return
	}
	p := parts{engine: m.Engine, bus: m.Bus, memory: m.Memory, spes: m.SPEs}
	*m = Machine{}
	if !p.reusable() {
		p.release()
		return
	}
	sh := shape{len(p.spes), p.memory.Size()}
	poolMu.Lock()
	pool[sh] = append(pool[sh], p)
	poolMu.Unlock()
}

// reusable reports whether a reset can return p to time zero: no process
// is live and no memory was released.
func (p parts) reusable() bool {
	if p.engine.Live() > 0 || !p.memory.Live() {
		return false
	}
	for _, s := range p.spes {
		if !s.Store.Live() {
			return false
		}
	}
	return true
}

// release returns p's memories to the pool internal/backing keeps; p is
// not used again.
func (p parts) release() {
	p.memory.Release()
	for _, s := range p.spes {
		s.Store.Release()
	}
}

// live panics when m has been released.
func (m *Machine) live() {
	if m.Engine == nil {
		panic("cell: machine used after Release")
	}
}

// SPE returns SPE i.
func (m *Machine) SPE(i int) *spe.SPE {
	m.live()
	if i < 0 || i >= len(m.SPEs) {
		panic(fmt.Sprintf("cell: SPE index %d out of range [0,%d)", i, len(m.SPEs)))
	}
	return m.SPEs[i]
}

// InjectFaults installs the injector's delivery hooks at every fault
// choke point — local-store allocation, MFC command issue, mailbox
// writes — and arms a timer for each planned SPE crash. Call before
// RunMain. A machine that never calls InjectFaults has nil hooks
// everywhere and takes its exact fault-free paths.
func (m *Machine) InjectFaults(inj *fault.Injector) {
	m.live()
	for i, s := range m.SPEs {
		i, s := i, s
		speLane := fmt.Sprintf("SPE%d", i)
		mfcLane := fmt.Sprintf("MFC%d", i)
		s.Store.SetAllocFault(func(size, align uint32) error {
			if inj.AllocFault(i) {
				m.tracer.Instant(speLane, m.Engine.Now(), "fault: ls-overflow")
				return fmt.Errorf("%w: injected soft overflow (%d B, align %d)",
					ls.ErrLocalStoreOverflow, size, align)
			}
			return nil
		})
		s.MFC.SetFaultHook(func() mfc.FaultAction {
			switch inj.DMAAction(i) {
			case fault.ActDrop:
				m.tracer.Instant(mfcLane, m.Engine.Now(), "fault: dma-drop")
				return mfc.FaultDrop
			case fault.ActCorrupt:
				m.tracer.Instant(mfcLane, m.Engine.Now(), "fault: dma-corrupt")
				return mfc.FaultCorrupt
			default:
				return mfc.FaultNone
			}
		})
		delay := func() sim.Duration {
			d := inj.MboxDelay(i)
			if d > 0 {
				m.tracer.Instant(speLane, m.Engine.Now(), "fault: mbox-stall")
			}
			return d
		}
		s.InMbox.SetWriteDelay(delay)
		s.OutMbox.SetWriteDelay(delay)
		s.OutIntrMbox.SetWriteDelay(delay)
	}
	for _, f := range inj.CrashFaults() {
		if f.SPE < 0 || f.SPE >= len(m.SPEs) {
			continue
		}
		f := f
		s := m.SPEs[f.SPE]
		m.Engine.At(f.At, func() {
			if !s.Failed() {
				s.Fail("injected crash")
				inj.NoteCrash(f)
			}
		})
	}
}

// HarvestMetrics copies the machine's accumulated statistics into reg:
// per-SPE time split (compute / DMA wait / mailbox wait / idle over
// total, in femtoseconds), local-store and mailbox high-water marks,
// per-MFC command and byte counts and DMA size and queue-depth
// histograms, per-port EIB delivered bytes and flow counts, and the bus
// reallocation split. Harvesting reads completed counters only — it
// schedules nothing and charges no virtual time, so it cannot perturb
// the replay fingerprint.
func (m *Machine) HarvestMetrics(reg *metrics.Registry, total sim.Duration) {
	m.live()
	for i, s := range m.SPEs {
		comp := fmt.Sprintf("spe%d", i)
		reg.Counter(comp, "compute_fs", int64(s.BusyTime()))
		reg.Counter(comp, "dma_wait_fs", int64(s.DMAWait()))
		reg.Counter(comp, "mbox_wait_fs", int64(s.MboxWait()))
		reg.Counter(comp, "idle_fs", int64(max(total-s.BusyTime()-s.DMAWait()-s.MboxWait(), 0)))
		reg.Gauge(comp, "ls_peak_bytes", int64(s.Store.Peak()))
		reg.Gauge(comp, "in_mbox_peak", int64(s.InMbox.Peak()))
		reg.Gauge(comp, "out_mbox_peak", int64(s.OutMbox.Peak()))
		reg.Gauge(comp, "out_intr_mbox_peak", int64(s.OutIntrMbox.Peak()))
		reg.Counter(comp, "mbox_writes", int64(s.InMbox.Writes()+s.OutMbox.Writes()+s.OutIntrMbox.Writes()))

		st := s.MFC.Stats()
		mcomp := fmt.Sprintf("mfc%d", i)
		reg.Counter(mcomp, "commands", int64(st.Commands))
		reg.Counter(mcomp, "list_commands", int64(st.ListCommands))
		reg.Counter(mcomp, "bytes_in", int64(st.BytesIn))
		reg.Counter(mcomp, "bytes_out", int64(st.BytesOut))
		reg.Gauge(mcomp, "queue_peak", int64(st.PeakQueue))
		size, depth := s.MFC.Histograms()
		reg.Histogram(mcomp, "dma_size_bytes", size)
		reg.Histogram(mcomp, "queue_depth", depth)
	}

	reg.Counter("eib", "bytes_moved", int64(m.Bus.BytesMoved()))
	reg.Counter("eib", "transfers", int64(m.Bus.Transfers()))
	reallocs, fast, full := m.Bus.Reallocs()
	reg.Counter("eib", "realloc_total", int64(reallocs))
	reg.Counter("eib", "realloc_fast_path", int64(fast))
	reg.Counter("eib", "realloc_full_waterfill", int64(full))
	for port, bytes := range m.Bus.PortBytes() {
		reg.Counter("eib", "port_bytes_"+port.String(), int64(bytes))
	}
	for port, flows := range m.Bus.PortFlows() {
		reg.Counter("eib", "port_flows_"+port.String(), int64(flows))
	}

	reg.Gauge("mem", "peak_bytes", int64(m.Memory.PeakAllocated()))
	reg.Counter("mem", "allocations", int64(m.Memory.Allocations()))
}

// RunMain spawns the PPE main program and runs the simulation to
// completion. It returns the virtual time consumed by main (from spawn to
// return) and any simulation error (e.g. a deadlock).
func (m *Machine) RunMain(name string, body func(ctx *Context)) (sim.Duration, error) {
	m.live()
	var elapsed sim.Duration
	m.Engine.Spawn("PPE:"+name, func(p *sim.Proc) {
		start := p.Now()
		body(&Context{machine: m, p: p})
		elapsed = p.Now().Sub(start)
	})
	if err := m.Engine.Run(); err != nil {
		return elapsed, err
	}
	return elapsed, nil
}

// Context is the PPE-side execution environment (main application thread).
type Context struct {
	machine *Machine
	p       *sim.Proc
	busy    sim.Duration
}

// Machine returns the hosting machine.
func (c *Context) Machine() *Machine { return c.machine }

// Now returns the current virtual time.
func (c *Context) Now() sim.Time { return c.p.Now() }

// Memory returns main memory (the PPE has direct load/store access).
func (c *Context) Memory() *mainmem.Memory { return c.machine.Memory }

// BusyTime reports accumulated PPE compute+IO time for this context.
func (c *Context) BusyTime() sim.Duration { return c.busy }

func (c *Context) charge(d sim.Duration, kind trace.Kind, label string) {
	if d <= 0 {
		return
	}
	start := c.p.Now()
	c.p.Sleep(d)
	c.busy += d
	c.machine.tracer.Span("PPE", start, c.p.Now(), kind, label)
}

// ComputeScalar charges n scalar operations on the PPE.
func (c *Context) ComputeScalar(n float64, label string) {
	c.charge(c.machine.cfg.PPEModel.ScalarOps(n), trace.KindCompute, label)
}

// ComputeBranches charges branch misprediction stalls.
func (c *Context) ComputeBranches(n, rate float64, label string) {
	c.charge(c.machine.cfg.PPEModel.Branches(n, rate), trace.KindCompute, label)
}

// DiskRead charges a file read of n bytes (image/model loading).
func (c *Context) DiskRead(bytes float64, label string) {
	c.charge(c.machine.cfg.PPEModel.DiskRead(bytes), trace.KindIO, label)
}

// MemStream charges streaming n bytes through the PPE cache hierarchy.
func (c *Context) MemStream(bytes float64, label string) {
	c.charge(c.machine.cfg.PPEModel.MemStream(bytes), trace.KindCompute, label)
}

// Sleep advances virtual time without charging busy accounting.
func (c *Context) Sleep(d sim.Duration) { c.p.Sleep(d) }

// --- SPE control (libspe analogs) ---------------------------------------

// LoadSPE loads and starts a program on SPE i (spe_create_thread).
func (c *Context) LoadSPE(i int, prog spe.Program) error {
	return c.machine.SPE(i).Load(prog)
}

// WriteInMbox writes a word into SPE i's inbound mailbox, blocking while
// full (spe_write_in_mbox).
func (c *Context) WriteInMbox(i int, v uint32) {
	c.charge(mboxAccessCost, trace.KindCompute, "mbox-write")
	c.machine.SPE(i).InMbox.Write(c.p, v)
}

// StatOutMbox reports queued entries in SPE i's outbound mailbox
// (spe_stat_out_mbox); each probe costs an MMIO access.
func (c *Context) StatOutMbox(i int) int {
	c.charge(mboxAccessCost, trace.KindCompute, "mbox-stat")
	return c.machine.SPE(i).OutMbox.Count()
}

// ReadOutMbox pops SPE i's outbound mailbox, blocking until a value is
// present (read after a successful poll never blocks).
func (c *Context) ReadOutMbox(i int) uint32 {
	c.charge(mboxAccessCost, trace.KindCompute, "mbox-read")
	return c.machine.SPE(i).OutMbox.Read(c.p)
}

// PollOutMbox spins at the configured poll interval until SPE i's
// outbound mailbox is non-empty, then reads it — the Listing 3
// `while(spe_stat_out_mbox(spuid)==0);` loop — or gives up once timeout
// of virtual time passes (sim.Forever: never); ok reports whether a value
// was read. The spin is simulated without emitting one event per probe:
// the context blocks until the mailbox fills and then rounds the
// detection up to the next poll-interval boundary, which is when the
// spinning PPE would actually have seen it.
func (c *Context) PollOutMbox(i int, timeout sim.Duration) (v uint32, ok bool) {
	s := c.machine.SPE(i)
	if c.StatOutMbox(i) == 0 {
		start := c.p.Now()
		if !s.OutMbox.WaitNotEmpty(c.p, timeout) {
			return 0, false
		}
		if iv := c.machine.cfg.PollInterval; iv > 0 {
			if rem := c.p.Now().Sub(start) % iv; rem != 0 {
				c.p.Sleep(iv - rem)
			}
		}
	}
	return c.ReadOutMbox(i), true
}

// WaitOutIntrMbox blocks on SPE i's interrupting outbound mailbox and
// reads it (the interrupt-driven completion path), giving up once timeout
// of virtual time passes (sim.Forever: never); ok reports whether a value
// was read.
func (c *Context) WaitOutIntrMbox(i int, timeout sim.Duration) (v uint32, ok bool) {
	s := c.machine.SPE(i)
	if !s.OutIntrMbox.WaitNotEmpty(c.p, timeout) {
		return 0, false
	}
	c.charge(mboxAccessCost, trace.KindCompute, "mbox-intr-read")
	return s.OutIntrMbox.Read(c.p), true
}

// WaitSPE blocks until SPE i's program returns.
func (c *Context) WaitSPE(i int) { c.machine.SPE(i).WaitStopped(c.p) }
