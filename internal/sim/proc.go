//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

type procState int

const (
	procNew procState = iota
	procRunning
	procBlocked // waiting on a Queue, no scheduled resume event
	procSleeping
	procDone
)

// Proc is a simulated process: a coroutine whose execution is interleaved
// with all other processes by the engine, one at a time, in virtual-time
// order. All Proc methods must be called only from the process's own body,
// except Kill, which any other process or engine callback may call.
type Proc struct {
	engine       *Engine
	name         string
	state        procState
	waitingIn    *Queue // the queue it is blocked on, if blocked
	blockedSince Time   // when the process entered procBlocked
	wake         *event // pending resume event, if sleeping
	procIdx      int    // position in engine.procs for O(1) removal
	killed       bool

	// The coroutine running the body: the engine resumes it with next
	// and unwinds it with stop; the body parks in yieldFn.
	next    func() (struct{}, bool)
	stop    func()
	yieldFn func(struct{}) bool
	err     error // a panic in the body, set when the coroutine ends
}

// killUnwind is the panic value that unwinds a killed or stopped
// process's stack from its current yield point; the coroutine's recover
// absorbs it.
type killUnwind struct{ p *Proc }

// Spawn creates a process that starts running at the current virtual time.
// The body runs as a coroutine, never concurrently with the engine or
// another process. A panic in the body ends the run: Run returns it as an
// error.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{engine: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		defer func() {
			r := recover()
			p.state = procDone
			e.removeProc(p)
			if q := p.waitingIn; q != nil { // stopped while blocked
				q.remove(p)
			}
			if ku, ok := r.(killUnwind); r != nil && (!ok || ku.p != p) {
				p.err = fmt.Errorf("sim: process %s panicked: %v\n%s", p.name, r, debug.Stack())
			}
		}()
		if !p.killed {
			body(p)
		}
	})
	e.addProc(p)
	p.resumeAt(e.now)
	p.state = procNew // the first resume starts the body
	return p
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.engine.now }

// yield parks the process and returns control to the engine. The caller
// must have arranged for a future resume (scheduled event or queue entry).
// A process killed while parked, or stopped by the engine, unwinds here
// instead of returning.
func (p *Proc) yield() {
	if !p.yieldFn(struct{}{}) || p.killed {
		panic(killUnwind{p})
	}
}

// resumeAt marks p sleeping and schedules its resume at t.
func (p *Proc) resumeAt(t Time) *event {
	p.state = procSleeping
	ev := p.engine.alloc()
	ev.at = t
	ev.proc = p
	p.engine.push(ev)
	return ev
}

// Kill terminates the process at its current suspension point: its stack
// unwinds (running deferred functions), it is removed from any wait queue,
// and any pending wake-up event is cancelled. Killing a finished or
// already-killed process is a no-op. A process that has not started yet
// never runs its body. Kill is the one Proc method that other processes
// and engine callbacks may call; the victim is gone (procDone) after the
// kill event at the current virtual time is dispatched.
func (p *Proc) Kill() {
	if p.state == procDone || p.killed {
		return
	}
	p.killed = true
	switch p.state {
	case procBlocked:
		p.waitingIn.remove(p)
		p.waitingIn = nil
		p.resumeAt(p.engine.now)
	case procSleeping:
		if p.wake != nil {
			p.engine.cancel(p.wake)
			p.wake = nil
		}
		p.resumeAt(p.engine.now)
	case procNew, procRunning:
		// procNew: the spawn event is already pending; the body is skipped
		// at first dispatch. procRunning: the process unwinds at its next
		// yield (only reachable from the process killing itself).
	}
}

// Sleep advances the process's virtual time by d. Non-positive durations
// yield the processor without advancing time (other events at the current
// instant run first).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.wake = p.resumeAt(p.engine.now.Add(d))
	p.yield()
	p.wake = nil
}

// Queue is a FIFO wait queue for processes blocking on a condition owned by
// some piece of simulated state (a mailbox slot, a DMA completion, ...).
// The zero value is ready to use; Init labels it for deadlock reports.
type Queue struct {
	name    string
	waiters []*Proc
}

// Init makes q a new wait queue, labelled for deadlock reports. A queue
// that was in use keeps the capacity its waiter list grew to.
func (q *Queue) Init(name string) {
	clear(q.waiters)
	*q = Queue{name: name, waiters: q.waiters[:0]}
}

// Wait blocks the calling process until another process calls WakeOne or
// WakeAll. Wait does not advance virtual time by itself; the wake-up occurs
// at the waker's current time.
func (p *Proc) Wait(q *Queue) {
	p.state = procBlocked
	p.blockedSince = p.engine.now
	p.waitingIn = q
	q.waiters = append(q.waiters, p)
	p.yield()
	p.waitingIn = nil
}

// remove deletes p from the wait queue, preserving FIFO order of the
// remaining waiters. It reports whether p was waiting.
func (q *Queue) remove(p *Proc) bool {
	for i, w := range q.waiters {
		if w == p {
			copy(q.waiters[i:], q.waiters[i+1:])
			q.waiters[len(q.waiters)-1] = nil
			q.waiters = q.waiters[:len(q.waiters)-1]
			return true
		}
	}
	return false
}

// WakeOne resumes the longest-waiting process, if any, scheduling it at the
// current virtual time. It reports whether a process was woken.
func (q *Queue) WakeOne(e *Engine) bool {
	if len(q.waiters) == 0 {
		return false
	}
	p := q.waiters[0]
	q.remove(p)
	p.resumeAt(e.now)
	return true
}

// WakeAll resumes every waiting process in FIFO order.
func (q *Queue) WakeAll(e *Engine) int {
	n := len(q.waiters)
	for _, p := range q.waiters {
		p.resumeAt(e.now)
	}
	clear(q.waiters)
	q.waiters = q.waiters[:0]
	return n
}

// WaitFor blocks until pred() is true, re-testing each time the queue is
// woken. The predicate is evaluated before the first wait, so a condition
// that already holds never blocks.
func (p *Proc) WaitFor(q *Queue, pred func() bool) {
	for !pred() {
		p.Wait(q)
	}
}

// WaitForTimeout is WaitFor with a deadline: it returns true as soon as
// pred() holds, or false once d of virtual time elapses first. On timeout
// the process is removed from the queue. With d == Forever it is WaitFor:
// no timer is armed and it returns true.
func (p *Proc) WaitForTimeout(q *Queue, d Duration, pred func() bool) bool {
	if d == Forever {
		p.WaitFor(q, pred)
		return true
	}
	deadline := p.engine.now.Add(d)
	expired := false
	timer := p.engine.At(deadline, func() {
		expired = true
		// Resume the process only if it is actually blocked on this
		// queue; otherwise it is running and will observe `expired` at
		// its next loop check.
		if q.remove(p) {
			p.resumeAt(p.engine.now)
		}
	})
	defer timer.Cancel()
	for !pred() {
		if expired || p.engine.now >= deadline {
			return false
		}
		p.Wait(q)
	}
	return true
}

func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
