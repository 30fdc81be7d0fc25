package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
)

// event is a scheduled occurrence: either a callback or a process resume.
// Events are pooled on the engine free list; idx doubles as the location
// tag (heap index, now-lane, popped, or cancelled-in-lane).
type event struct {
	at   Time
	seq  uint64 // tie-break: insertion order, keeps the engine deterministic
	fn   func()
	proc *Proc
	idx  int // heap index; idxPopped / idxNowLane / idxDead when not in heap
}

// idx sentinels for events outside the heap.
const (
	idxPopped  = -1 // dispatched or removed from the heap
	idxNowLane = -2 // waiting in the same-timestamp FIFO lane
	idxDead    = -3 // cancelled while in the now lane; skipped on drain
)

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = idxPopped
	*h = old[:n-1]
	return e
}

// Engine is a deterministic discrete-event simulator.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	queue eventHeap
	// nowq is the same-timestamp fast lane: events scheduled at exactly
	// the current time bypass the heap and run in FIFO (= seq) order.
	// Wake-at-now (WakeOne, Yield, Spawn) is the dominant scheduling
	// pattern, so this skips the O(log n) sift for most events. Dispatch
	// merges the lane head with the heap top by (at, seq), preserving the
	// exact total order a pure heap would produce.
	nowq    []*event
	nowHead int
	free    []*event // recycled event structs
	procs   []*Proc  // all live (not yet terminated) processes
	ready   chan signal
	halted  bool

	// EventCount is the total number of events dispatched so far.
	EventCount uint64
}

type signal struct{}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{ready: make(chan signal)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t (not before the current
// time). Callbacks run in scheduling order among events with equal time.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.at = t
	ev.fn = fn
	e.push(ev)
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now.Add(d), fn) }

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
	if ev.at == e.now {
		ev.idx = idxNowLane
		e.nowq = append(e.nowq, ev)
		return
	}
	heap.Push(&e.queue, ev)
}

func (e *Engine) cancel(ev *event) {
	switch {
	case ev.idx >= 0:
		heap.Remove(&e.queue, ev.idx)
		e.recycle(ev)
	case ev.idx == idxNowLane:
		// Still referenced by the lane slice: tombstone it; the dispatch
		// loop recycles it when drained.
		ev.idx = idxDead
		ev.fn = nil
		ev.proc = nil
	}
}

// Run dispatches events until the queue is empty or the engine is halted.
// It returns an error if live processes remain blocked with no pending
// events (a simulated deadlock), listing the stuck processes.
func (e *Engine) Run() error { return e.RunUntil(Never) }

// RunUntil dispatches events with timestamp <= deadline. Reaching the
// deadline with work left is not an error; an empty queue with blocked
// processes is.
func (e *Engine) RunUntil(deadline Time) error {
	for !e.halted {
		// Skip tombstoned lane entries.
		for e.nowHead < len(e.nowq) && e.nowq[e.nowHead].idx == idxDead {
			e.recycle(e.nowq[e.nowHead])
			e.nowq[e.nowHead] = nil
			e.nowHead++
		}
		var ev *event
		if e.nowHead < len(e.nowq) {
			// Lane events sit at e.now, so they precede any heap event at
			// a later time; at equal time the smaller seq wins.
			nw := e.nowq[e.nowHead]
			if len(e.queue) == 0 || e.queue[0].at > nw.at ||
				(e.queue[0].at == nw.at && e.queue[0].seq > nw.seq) {
				if nw.at > deadline {
					return nil
				}
				ev = nw
				e.nowq[e.nowHead] = nil
				e.nowHead++
			}
		} else if e.nowHead > 0 {
			// Lane drained: reset it so the backing array is reused.
			e.nowq = e.nowq[:0]
			e.nowHead = 0
		}
		if ev == nil {
			if len(e.queue) == 0 {
				return e.checkQuiescent()
			}
			if e.queue[0].at > deadline {
				return nil
			}
			ev = heap.Pop(&e.queue).(*event)
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		e.EventCount++
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.proc != nil:
			e.resume(ev.proc)
		}
		e.recycle(ev)
	}
	return nil
}

// Halt stops the engine after the current event completes. Remaining
// processes are abandoned in place; the engine must not be reused afterward.
func (e *Engine) Halt() { e.halted = true }

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

// Blocked returns a snapshot of the currently blocked processes, sorted by
// name then queue for deterministic reporting.
func (e *Engine) Blocked() []BlockedProc {
	var stuck []BlockedProc
	for _, p := range e.procs {
		if p.state == procBlocked {
			stuck = append(stuck, BlockedProc{Name: p.name, Queue: p.blockedOn, Since: p.blockedSince})
		}
	}
	sort.Slice(stuck, func(i, j int) bool {
		if stuck[i].Name != stuck[j].Name {
			return stuck[i].Name < stuck[j].Name
		}
		return stuck[i].Queue < stuck[j].Queue
	})
	return stuck
}

// checkQuiescent reports a DeadlockError when blocked processes can never
// resume.
func (e *Engine) checkQuiescent() error {
	stuck := e.Blocked()
	if len(stuck) == 0 {
		return nil
	}
	return &DeadlockError{At: e.now, Blocked: stuck}
}

// resume hands control to p until it yields back.
func (e *Engine) resume(p *Proc) {
	if p.state == procDone {
		return
	}
	p.state = procRunning
	p.resume <- signal{}
	<-e.ready
}
