package sim

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
)

// event is a scheduled occurrence: either a callback or a process resume.
// Events are pooled on the engine free list.
type event struct {
	at   Time
	seq  uint64 // tie-break: insertion order, keeps the engine deterministic
	fn   func()
	proc *Proc
	idx  int // heap index; idxPopped once dispatched or removed
}

// idxPopped marks an event that is no longer in the heap.
const idxPopped = -1

// eventHeap is a binary min-heap of events by (at, seq); each event's idx
// tracks its slot so cancel can remove it.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h eventHeap) up(j int) {
	for i := (j - 1) / 2; j > 0 && h.less(j, i); i = (j - 1) / 2 {
		h.swap(i, j)
		j = i
	}
}

// down sifts slot i0 toward the leaves of h[:n] and reports whether it moved.
func (h eventHeap) down(i0, n int) bool {
	i := i0
	for j := 2*i + 1; j < n; j = 2*i + 1 {
		if j+1 < n && h.less(j+1, j) {
			j++
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) push(ev *event) {
	ev.idx = len(*h)
	*h = append(*h, ev)
	h.up(ev.idx)
}

// remove takes the event at slot i out of the heap.
func (h *eventHeap) remove(i int) *event {
	old := *h
	n := len(old) - 1
	if n != i {
		old.swap(i, n)
		if !old.down(i, n) {
			old.up(i)
		}
	}
	ev := old[n]
	old[n] = nil
	ev.idx = idxPopped
	*h = old[:n]
	return ev
}

// Engine is a deterministic discrete-event simulator.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	queue eventHeap // every pending event, ordered by (at, seq)
	free  []*event  // recycled event structs
	procs []*Proc   // all live (not yet terminated) processes

	// EventCount is the total number of events dispatched so far.
	EventCount uint64
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to virtual time zero for a run that starts
// over: pending events are dropped, and the clock and EventCount restart
// at zero, so the next run dispatches exactly as on a new engine. The
// sequence counter keeps running, since only the order of sequence
// numbers matters, so a Timer armed before Reset never names an event of
// the new run. The event free list and the queue keep their capacity.
// Reset panics while a process is live (see Live).
func (e *Engine) Reset() {
	if len(e.procs) > 0 {
		panic(fmt.Sprintf("sim: Reset with %d live process(es)", len(e.procs)))
	}
	for _, ev := range e.queue {
		e.recycle(ev)
	}
	clear(e.queue)
	e.queue = e.queue[:0]
	e.now, e.EventCount = 0, 0
}

// Live reports the processes spawned and not yet ended. It is zero after
// Run returns.
func (e *Engine) Live() int { return len(e.procs) }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t (not before the current
// time) and returns a handle that can cancel it. Callbacks run in
// scheduling order among events with equal time.
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.at = t
	ev.fn = fn
	e.push(ev)
	return Timer{engine: e, ev: ev, seq: ev.seq}
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Duration, fn func()) Timer { return e.At(e.now.Add(d), fn) }

// alloc takes an event from the free list (or the heap allocator). Callers
// fill at/fn/proc and hand it to push, which owns seq assignment.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle clears a dispatched/cancelled event and returns it to the pool.
func (e *Engine) recycle(ev *event) {
	*ev = event{}
	e.free = append(e.free, ev)
}

func (e *Engine) push(ev *event) {
	e.seq++
	ev.seq = e.seq
	e.queue.push(ev)
}

func (e *Engine) cancel(ev *event) {
	if ev.idx >= 0 {
		e.queue.remove(ev.idx)
		e.recycle(ev)
	}
}

// Run dispatches events until the queue is empty. It returns an error if
// live processes remain blocked with no pending events (a simulated
// deadlock), listing the stuck processes, or if a process body or an
// event callback panics, naming the process or the instant, the panic
// value and its stack. Either way every live process is unwound before
// Run returns.
func (e *Engine) Run() (err error) {
	// A callback panics on the engine's own stack, so one recover covers
	// every event of the run; the stack is captured before it unwinds.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: event callback at %s panicked: %v\n%s", e.now, r, debug.Stack())
			e.stopAll()
		}
	}()
	for len(e.queue) > 0 {
		ev := e.queue.remove(0)
		e.now = ev.at
		e.EventCount++
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.proc != nil:
			if err := e.resume(ev.proc); err != nil {
				e.recycle(ev)
				e.stopAll()
				return err
			}
		}
		e.recycle(ev)
	}
	err = e.checkQuiescent()
	e.stopAll()
	return err
}

// addProc registers a live process (O(1) slice append).
func (e *Engine) addProc(p *Proc) {
	p.procIdx = len(e.procs)
	e.procs = append(e.procs, p)
}

// removeProc unregisters a terminated process by swapping in the last slot.
func (e *Engine) removeProc(p *Proc) {
	last := len(e.procs) - 1
	moved := e.procs[last]
	e.procs[p.procIdx] = moved
	moved.procIdx = p.procIdx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// BlockedProc describes one stuck process: its name, the wait queue it is
// blocked on (the wait cause), and when it blocked.
type BlockedProc struct {
	Name  string
	Queue string
	Since Time
}

// DeadlockError reports a simulated deadlock: the event queue drained
// while processes were still blocked, so none of them can ever resume.
// Instead of ending the run as if it completed, Run surfaces every stuck
// process and its wait cause.
type DeadlockError struct {
	At      Time
	Blocked []BlockedProc
}

func (e *DeadlockError) Error() string {
	parts := make([]string, len(e.Blocked))
	for i, b := range e.Blocked {
		parts[i] = fmt.Sprintf("%s (blocked on %s since %s)", b.Name, b.Queue, b.Since)
	}
	return fmt.Sprintf("sim: deadlock at %s: no events pending and %d process(es) blocked: %s",
		e.At, len(e.Blocked), strings.Join(parts, "; "))
}

// checkQuiescent reports a DeadlockError when blocked processes can never
// resume, listing them sorted by name then queue.
func (e *Engine) checkQuiescent() error {
	var stuck []BlockedProc
	for _, p := range e.procs {
		if p.state == procBlocked {
			stuck = append(stuck, BlockedProc{Name: p.name, Queue: p.waitingIn.name, Since: p.blockedSince})
		}
	}
	if len(stuck) == 0 {
		return nil
	}
	sort.Slice(stuck, func(i, j int) bool {
		if stuck[i].Name != stuck[j].Name {
			return stuck[i].Name < stuck[j].Name
		}
		return stuck[i].Queue < stuck[j].Queue
	})
	return &DeadlockError{At: e.now, Blocked: stuck}
}

// resume runs p until it yields back or ends, and returns the error of a
// panic in its body.
func (e *Engine) resume(p *Proc) error {
	if p.state == procDone {
		return nil
	}
	p.state = procRunning
	p.next()
	return p.err
}

// stopAll unwinds every live process. A suspended one unwinds from its
// yield point, running its deferred functions, and leaves e.procs as it
// ends; stopping one that never started runs nothing, so it is dropped
// here.
func (e *Engine) stopAll() {
	for len(e.procs) > 0 {
		p := e.procs[len(e.procs)-1]
		p.stop()
		if p.state != procDone {
			p.state = procDone
			e.removeProc(p)
		}
	}
}
