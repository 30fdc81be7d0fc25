// Package mfc models an SPE's Memory Flow Controller: a 16-entry DMA
// command queue moving data between main memory and the local store over
// the EIB, with tag groups for completion tracking, hardware transfer-size
// and alignment rules enforced, and DMA-list (scatter/gather) commands.
//
// Data moves for real: a Get copies bytes from simulated main memory into
// the local store at transfer completion; a Put snapshots the local-store
// bytes at issue time (overwriting a buffer before its tag completes is a
// real double-buffering bug on hardware, and snapshotting keeps the
// simulation deterministic while rewarding correct tag discipline).
package mfc

import (
	"fmt"
	"slices"

	"cellport/internal/eib"
	"cellport/internal/ls"
	"cellport/internal/mainmem"
	"cellport/internal/metrics"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// Hardware limits.
const (
	QueueDepth      = 16        // MFC SPU command queue entries
	MaxTransfer     = 16 * 1024 // bytes per DMA command
	NumTags         = 32
	MaxListElements = 2048
)

// Timing, in line with published Cell DMA measurements (~100 ns
// small-transfer latency).
const (
	// issueCost is SPU time consumed writing the command to the MFC
	// channels (a few channel writes).
	issueCost = 10 * sim.Nanosecond
	// startupLatency is the time from command issue to first data on the
	// bus (address translation, EIB arbitration).
	startupLatency = 90 * sim.Nanosecond
)

// FaultAction is the injected-fault verdict for one DMA command.
type FaultAction int

// DMA fault verdicts, consulted per command via the fault hook.
const (
	// FaultNone lets the command proceed normally.
	FaultNone FaultAction = iota
	// FaultDrop loses the command: its tag stays pending forever and the
	// queue slot leaks (the classic hung-tag failure mode).
	FaultDrop
	// FaultCorrupt delivers the payload corrupted and latches the sticky
	// transfer-error flag the dispatcher reports as a retryable DMA fault.
	FaultCorrupt
)

// MFC is one SPE's memory flow controller.
type MFC struct {
	engine *sim.Engine
	bus    *eib.Bus
	mem    *mainmem.Memory
	store  *ls.LocalStore
	port   eib.Port

	slots      sim.Semaphore
	tagPending [NumTags]int
	tagWait    sim.Queue

	// faultHook, when set, is sampled once per accepted DMA command
	// (deterministic fault injection).
	faultHook func() FaultAction
	// xferErr is the sticky transfer-error flag: set when a command's
	// payload was delivered corrupted, cleared by ClearTransferError.
	xferErr bool
	// starting holds the commands inside their startup latency and onBus
	// those with a piece on the bus, so Abort can tear them down. Slices
	// (not maps) keep teardown order deterministic.
	starting []*cmd
	onBus    []*cmd
	// free holds finished commands for reuse (see cmd).
	free []*cmd

	// Stats
	commands  uint64
	bytesIn   uint64 // main memory -> LS
	bytesOut  uint64 // LS -> main memory
	listCmds  uint64
	peakQueue int
	sizeHist  metrics.Histogram // bytes per bus piece
	depthHist metrics.Histogram // queue depth at each command issue

	// Optional tracing, nil when untraced: one span per DMA command on
	// lane, from bus start to completion.
	tracer *trace.Recorder
	lane   string
}

var (
	dmaSizeBounds    = []int64{128, 1024, 4096, 16384}
	queueDepthBounds = []int64{1, 2, 4, 8, 16}
)

// SetTracer installs (or clears, with nil) a recorder; each DMA command
// emits one KindDMA span on the given lane covering its bus time.
func (m *MFC) SetTracer(t *trace.Recorder, lane string) {
	m.tracer = t
	m.lane = lane
}

// SetFaultHook installs (or clears, with nil) the per-command fault hook.
func (m *MFC) SetFaultHook(h func() FaultAction) { m.faultHook = h }

// TransferError reports the sticky transfer-error flag.
func (m *MFC) TransferError() bool { return m.xferErr }

// ClearTransferError resets the sticky transfer-error flag.
func (m *MFC) ClearTransferError() { m.xferErr = false }

func (m *MFC) sampleFault() FaultAction {
	if m.faultHook == nil {
		return FaultNone
	}
	return m.faultHook()
}

// corrupt flips bits in a delivered payload and latches the error flag.
func (m *MFC) corrupt(b []byte) {
	for i := range b {
		b[i] ^= 0xA5
	}
	m.xferErr = true
}

// without returns cs less c, keeping the order of the rest.
func without(cs []*cmd, c *cmd) []*cmd {
	if i := slices.Index(cs, c); i >= 0 {
		return slices.Delete(cs, i, i+1)
	}
	return cs
}

// Abort tears down the MFC after its SPE fails: pending command starts are
// cancelled, in-flight transfers stop moving data, every tag is forced
// quiescent, and tag waiters are released. The queue semaphore is left as
// is — a failed SPE never loads another program. The torn-down commands
// are dropped, never recycled.
func (m *MFC) Abort() {
	for _, c := range m.starting {
		c.start.Cancel()
	}
	m.starting = nil
	for _, c := range m.onBus {
		c.tr.Abort()
	}
	m.onBus = nil
	for i := range m.tagPending {
		m.tagPending[i] = 0
	}
	m.tagWait.WakeAll(m.engine)
}

// Labels names an MFC's two wait queues in deadlock reports.
type Labels struct{ Queue, TagGroup string }

// LabelsFor returns the labels of the MFC on port, such as "SPE3 MFC
// queue" and "SPE3 tag-group".
func LabelsFor(port eib.Port) Labels {
	return Labels{Queue: fmt.Sprintf("%v MFC queue", port), TagGroup: fmt.Sprintf("%v tag-group", port)}
}

// Init makes m a new MFC bound to one SPE's local store and bus port. An
// MFC that was in use keeps its free commands and the capacity of its
// lists and wait queues; the commands a faulted or failed run left
// starting, on the bus or dropped are let go. Its engine and bus must have
// been reset first.
func (m *MFC) Init(e *sim.Engine, bus *eib.Bus, mem *mainmem.Memory, store *ls.LocalStore, port eib.Port, l Labels) {
	clear(m.starting)
	clear(m.onBus)
	slots, tagWait := m.slots, m.tagWait
	starting, onBus, free := m.starting[:0], m.onBus[:0], m.free
	*m = MFC{
		engine: e, bus: bus, mem: mem, store: store, port: port,
		sizeHist:  metrics.Histogram{Bounds: dmaSizeBounds},
		depthHist: metrics.Histogram{Bounds: queueDepthBounds},
	}
	m.slots, m.tagWait = slots, tagWait
	m.starting, m.onBus, m.free = starting, onBus, free
	m.slots.Init(e, l.Queue, QueueDepth)
	m.tagWait.Init(l.TagGroup)
}

// Reset makes m new again on the engine, bus, main memory, local store
// and port Init bound it to, as Init does for an MFC that was in use.
func (m *MFC) Reset(l Labels) { m.Init(m.engine, m.bus, m.mem, m.store, m.port, l) }

// ListElement describes one entry of a DMA list command: a contiguous run
// in main memory. The LS side advances by Size for each element.
type ListElement struct {
	EA   mainmem.Addr
	Size uint32
}

// checkTransfer enforces the hardware DMA rules: legal sizes are 1, 2, 4,
// 8 and multiples of 16 up to 16 KB; small transfers must be naturally
// aligned; 16-byte-and-larger transfers require quadword alignment on both
// addresses with matching low-order offsets.
func checkTransfer(lsa ls.Addr, ea mainmem.Addr, size uint32) error {
	switch {
	case size == 0:
		return fmt.Errorf("mfc: zero-length DMA")
	case size > MaxTransfer:
		return fmt.Errorf("mfc: DMA size %d exceeds %d-byte limit", size, MaxTransfer)
	case size == 1 || size == 2 || size == 4 || size == 8:
		if uint32(lsa)%size != 0 || uint32(ea)%size != 0 {
			return fmt.Errorf("mfc: %d-byte DMA requires natural alignment (ls=%#x ea=%#x)", size, uint32(lsa), uint32(ea))
		}
	case size%16 == 0:
		if uint32(lsa)%16 != 0 || uint32(ea)%16 != 0 {
			return fmt.Errorf("mfc: %d-byte DMA requires quadword alignment (ls=%#x ea=%#x)", size, uint32(lsa), uint32(ea))
		}
	default:
		return fmt.Errorf("mfc: illegal DMA size %d (must be 1, 2, 4, 8 or a multiple of 16)", size)
	}
	return nil
}

// checkBounds rejects transfers whose windows fall outside the local
// store or main memory (the MFC-exception analog); garbage addresses from
// corrupted headers surface as errors, not simulator panics.
func (m *MFC) checkBounds(lsa ls.Addr, ea mainmem.Addr, size uint32) error {
	if end := uint64(lsa) + uint64(size); end > ls.Size {
		return fmt.Errorf("mfc: DMA LS window [%#x,%#x) beyond %d B local store", uint32(lsa), end, ls.Size)
	}
	if end := uint64(ea) + uint64(size); end > uint64(m.mem.Size()) {
		return fmt.Errorf("mfc: DMA effective window [%#x,%#x) beyond %d B main memory", uint32(ea), end, m.mem.Size())
	}
	return nil
}

func checkTag(tag int) error {
	if tag < 0 || tag >= NumTags {
		return fmt.Errorf("mfc: tag %d out of range [0,%d)", tag, NumTags)
	}
	return nil
}

// checkSingle validates a Get or Put.
func (m *MFC) checkSingle(lsa ls.Addr, ea mainmem.Addr, size uint32, tag int) error {
	if err := checkTransfer(lsa, ea, size); err != nil {
		return err
	}
	if err := checkTag(tag); err != nil {
		return err
	}
	return m.checkBounds(lsa, ea, size)
}

// Get enqueues a main-memory -> local-store transfer under the given tag.
// The calling process pays the issue cost and blocks only if the command
// queue is full. Data lands in the LS when the tag completes.
func (m *MFC) Get(p *sim.Proc, lsa ls.Addr, ea mainmem.Addr, size uint32, tag int) error {
	if err := m.checkSingle(lsa, ea, size, tag); err != nil {
		return err
	}
	c := m.newCmd(tag, getCmd)
	c.pieces = append(c.pieces, piece{dst: m.store.Bytes(lsa, size), src: m.mem.Bytes(ea, size)})
	m.issue(p, c)
	return nil
}

// Put enqueues a local-store -> main-memory transfer under the given tag.
// The LS bytes are snapshotted at issue time (see package comment).
func (m *MFC) Put(p *sim.Proc, lsa ls.Addr, ea mainmem.Addr, size uint32, tag int) error {
	if err := m.checkSingle(lsa, ea, size, tag); err != nil {
		return err
	}
	c := m.newCmd(tag, putCmd)
	c.pieces = append(c.pieces, piece{dst: m.mem.Bytes(ea, size), src: c.snapshot(m.store.Bytes(lsa, size))})
	m.issue(p, c)
	return nil
}

// GetList enqueues a DMA-list (gather) command: elements are transferred
// serially into consecutive LS space starting at lsa, all under one tag
// and one queue slot — the reason DMA lists beat strings of individual
// gets for many small pieces (§4.1). The list is not retained.
func (m *MFC) GetList(p *sim.Proc, lsa ls.Addr, list []ListElement, tag int) error {
	return m.issueList(p, lsa, list, tag, getListCmd)
}

// PutList enqueues a DMA-list (scatter) command from consecutive LS space.
func (m *MFC) PutList(p *sim.Proc, lsa ls.Addr, list []ListElement, tag int) error {
	return m.issueList(p, lsa, list, tag, putListCmd)
}

// issueList validates a DMA list, resolves its elements to the pieces of
// one command (a put snapshots each element's LS bytes) and issues it.
func (m *MFC) issueList(p *sim.Proc, lsa ls.Addr, list []ListElement, tag int, kind command) error {
	if len(list) == 0 {
		return fmt.Errorf("mfc: empty DMA list")
	}
	if len(list) > MaxListElements {
		return fmt.Errorf("mfc: DMA list has %d elements, max %d", len(list), MaxListElements)
	}
	if err := checkTag(tag); err != nil {
		return err
	}
	c := m.newCmd(tag, kind)
	cursor := lsa
	for i, el := range list {
		err := checkTransfer(cursor, el.EA, el.Size)
		if err == nil {
			err = m.checkBounds(cursor, el.EA, el.Size)
		}
		if err != nil {
			m.recycle(c)
			return fmt.Errorf("mfc: list element %d: %w", i, err)
		}
		lsb := m.store.Bytes(cursor, el.Size)
		mb := m.mem.Bytes(el.EA, el.Size)
		if kind.get {
			c.pieces = append(c.pieces, piece{dst: lsb, src: mb})
		} else {
			c.pieces = append(c.pieces, piece{dst: mb, src: c.snapshot(lsb)})
		}
		cursor = ls.Addr(uint32(cursor) + el.Size)
	}
	m.issue(p, c)
	return nil
}

// piece is one contiguous run of a DMA command: src is copied to dst when
// the run's bus transfer completes.
type piece struct{ dst, src []byte }

// command is a DMA command kind: the direction picks the bus ports and the
// byte counter, and the label names the command's trace span.
type command struct {
	label     string
	get, list bool
}

var (
	getCmd     = command{label: "get", get: true}
	putCmd     = command{label: "put"}
	getListCmd = command{label: "get-list", get: true, list: true}
	putListCmd = command{label: "put-list", list: true}
)

// cmd is one DMA command, from Get, Put or a list call until its last
// piece lands. Its engine and bus callbacks are bound once, when the
// struct is first made, and it returns to the MFC's free list in the
// callback that completes its tag, so a steady stream of commands
// allocates nothing. A dropped command (FaultDrop) still holds its queue
// slot and an aborted one its torn-down timer or transfer; neither is
// recycled.
type cmd struct {
	m      *MFC
	tag    int
	kind   command
	act    FaultAction
	start  sim.Timer // the pending end of the startup latency
	t0     sim.Time  // when the first piece reached the bus
	next   int       // the piece on the bus
	pieces []piece
	snap   []byte // a put's issue-time copy of its LS bytes
	tr     eib.Transfer
	// startFn and landFn are c.begin and c.land, bound once.
	startFn, landFn func()
}

// newCmd takes a command from the free list, or makes one.
func (m *MFC) newCmd(tag int, kind command) *cmd {
	var c *cmd
	if n := len(m.free); n > 0 {
		c = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		c = &cmd{m: m}
		c.startFn, c.landFn = c.begin, c.land
	}
	c.tag, c.kind = tag, kind
	return c
}

// recycle puts a command that will never run again on the free list,
// keeping its piece slice and snapshot buffer for the next one.
func (m *MFC) recycle(c *cmd) {
	clear(c.pieces) // let go of the LS and main-memory windows
	c.pieces, c.snap, c.next = c.pieces[:0], c.snap[:0], 0
	m.free = append(m.free, c)
}

// snapshot copies b into the command's snapshot buffer and returns the
// copy. A buffer that grows leaves earlier copies in the old array, where
// nothing writes them again.
func (c *cmd) snapshot(b []byte) []byte {
	n := len(c.snap)
	c.snap = append(c.snap, b...)
	return c.snap[n:]
}

// issue runs one validated command. The calling process pays the issue
// cost and takes a queue slot, and the fault hook is sampled once. After
// the startup latency the pieces stream serially on the bus; the tag
// completes when the last one lands, and one span covers them all.
func (m *MFC) issue(p *sim.Proc, c *cmd) {
	p.Sleep(issueCost)
	m.slots.Acquire(p)
	m.noteQueueDepth()
	m.tagPending[c.tag]++
	m.commands++
	if c.kind.list {
		m.listCmds++
	}
	for _, pc := range c.pieces {
		m.sizeHist.Observe(int64(len(pc.dst)))
	}
	if c.act = m.sampleFault(); c.act == FaultDrop {
		return // the command is lost; its tag never completes
	}
	c.start = m.engine.At(m.engine.Now().Add(startupLatency), c.startFn)
	m.starting = append(m.starting, c)
}

// begin ends the startup latency: the first piece goes on the bus.
func (c *cmd) begin() {
	m := c.m
	m.starting = without(m.starting, c)
	c.t0 = m.engine.Now()
	c.send()
}

// send puts the next piece on the bus.
func (c *cmd) send() {
	m := c.m
	src, dst := eib.PortMemory, m.port
	if !c.kind.get {
		src, dst = dst, src
	}
	m.bus.Begin(&c.tr, src, dst, int64(len(c.pieces[c.next].dst)), c.landFn)
	m.onBus = append(m.onBus, c)
}

// land delivers the piece on the bus, then sends the next one or, after
// the last, completes the tag and recycles the command.
func (c *cmd) land() {
	m := c.m
	m.onBus = without(m.onBus, c)
	pc := c.pieces[c.next]
	copy(pc.dst, pc.src)
	if c.act == FaultCorrupt {
		m.corrupt(pc.dst)
	}
	if c.kind.get {
		m.bytesIn += uint64(len(pc.dst))
	} else {
		m.bytesOut += uint64(len(pc.dst))
	}
	if c.next++; c.next < len(c.pieces) {
		c.send()
		return
	}
	m.span(c.t0, c.kind.label)
	m.finish(c.tag)
	m.recycle(c)
}

// span emits one DMA span on the MFC's lane; an untraced MFC discards it.
func (m *MFC) span(start sim.Time, label string) {
	m.tracer.Span(m.lane, start, m.engine.Now(), trace.KindDMA, label)
}

func (m *MFC) finish(tag int) {
	m.tagPending[tag]--
	m.slots.Release()
	m.tagWait.WakeAll(m.engine)
}

func (m *MFC) noteQueueDepth() {
	d := QueueDepth - m.slots.Available()
	if d > m.peakQueue {
		m.peakQueue = d
	}
	m.depthHist.Observe(int64(d))
}

// WaitTag blocks until every command issued under tag has completed
// (the mfc_write_tag_mask / mfc_read_tag_status_all idiom).
func (m *MFC) WaitTag(p *sim.Proc, tag int) {
	p.WaitFor(&m.tagWait, func() bool { return m.tagPending[tag] == 0 })
}

// WaitTagMask blocks until all tags selected by mask (bit i = tag i) are
// quiescent.
func (m *MFC) WaitTagMask(p *sim.Proc, mask uint32) {
	p.WaitFor(&m.tagWait, func() bool {
		for t := 0; t < NumTags; t++ {
			if mask&(1<<uint(t)) != 0 && m.tagPending[t] > 0 {
				return false
			}
		}
		return true
	})
}

// WaitAll blocks until the command queue is fully drained.
func (m *MFC) WaitAll(p *sim.Proc) { m.WaitTagMask(p, ^uint32(0)) }

// Stats snapshot.
type Stats struct {
	Commands     uint64
	ListCommands uint64
	BytesIn      uint64
	BytesOut     uint64
	PeakQueue    int
}

// Stats returns cumulative counters.
func (m *MFC) Stats() Stats {
	return Stats{
		Commands:     m.commands,
		ListCommands: m.listCmds,
		BytesIn:      m.bytesIn,
		BytesOut:     m.bytesOut,
		PeakQueue:    m.peakQueue,
	}
}

// Histograms returns the transfer-size and queue-depth histograms.
func (m *MFC) Histograms() (size, depth metrics.Histogram) {
	return m.sizeHist, m.depthHist
}
