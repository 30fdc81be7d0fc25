package sim

import "fmt"

type procState int

const (
	procNew procState = iota
	procRunning
	procBlocked // waiting on a Queue, no scheduled resume event
	procSleeping
	procDone
)

// Proc is a simulated process: a goroutine whose execution is interleaved
// with all other processes by the engine, one at a time, in virtual-time
// order. All Proc methods must be called only from the process's own body,
// except Kill, which any other process or engine callback may call.
type Proc struct {
	engine       *Engine
	name         string
	resume       chan signal
	state        procState
	blockedOn    string
	blockedSince Time   // when the process entered procBlocked
	wake         *event // pending resume event, if sleeping
	procIdx      int    // position in engine.procs for O(1) removal
	killed       bool

	// interruptible wait support
	waitingIn *Queue
	waitPos   int
}

// killUnwind is the panic value that unwinds a killed process's stack from
// its current yield point; the spawn goroutine's recover absorbs it.
type killUnwind struct{ p *Proc }

// Spawn creates a process that starts running at the current virtual time.
// The body runs on its own goroutine but never concurrently with the engine
// or another process.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, body)
}

// SpawnAt is Spawn with a delayed start.
func (e *Engine) SpawnAt(t Time, name string, body func(p *Proc)) *Proc {
	if t < e.now {
		t = e.now
	}
	p := &Proc{engine: e, name: name, resume: make(chan signal), state: procNew}
	e.addProc(p)
	go func() {
		<-p.resume // wait for first dispatch
		defer func() {
			r := recover()
			p.state = procDone
			e.removeProc(p)
			if r != nil {
				if ku, ok := r.(killUnwind); !ok || ku.p != p {
					panic(r) // a real panic from the body: crash loudly
				}
			}
			e.ready <- signal{}
		}()
		if !p.killed {
			body(p)
		}
	}()
	ev := e.alloc()
	ev.at = t
	ev.proc = p
	e.push(ev)
	return p
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.engine }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.engine.now }

// yield parks the process and returns control to the engine. The caller
// must have arranged for a future resume (scheduled event or queue entry).
// A process killed while parked unwinds here instead of returning.
func (p *Proc) yield() {
	p.engine.ready <- signal{}
	<-p.resume
	if p.killed {
		panic(killUnwind{p})
	}
	p.state = procRunning
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
		if q := p.waitingIn; q != nil {
			q.remove(p)
			p.waitingIn = nil
		}
		p.scheduleKillResume()
	case procSleeping:
		if p.wake != nil {
			p.engine.cancel(p.wake)
			p.wake = nil
		}
		p.scheduleKillResume()
	case procNew, procRunning:
		// procNew: the spawn event is already pending; the body is skipped
		// at first dispatch. procRunning: the process unwinds at its next
		// yield (only reachable from the process killing itself).
	}
}

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// scheduleKillResume arranges an immediate resume so the killed process
// can unwind at the current virtual time.
func (p *Proc) scheduleKillResume() {
	p.state = procSleeping
	ev := p.engine.alloc()
	ev.at = p.engine.now
	ev.proc = p
	p.engine.push(ev)
}

// Sleep advances the process's virtual time by d. Non-positive durations
// yield the processor without advancing time (other events at the current
// instant run first).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.state = procSleeping
	ev := p.engine.alloc()
	ev.at = p.engine.now.Add(d)
	ev.proc = p
	p.wake = ev
	p.engine.push(ev)
	p.yield()
	p.wake = nil
}

// Yield reschedules the process at the current instant, behind events
// already pending at this time.
func (p *Proc) Yield() { p.Sleep(0) }

// Queue is a FIFO wait queue for processes blocking on a condition owned by
// some piece of simulated state (a mailbox slot, a DMA completion, ...).
// The zero value is ready to use once Name is set (or via NewQueue).
type Queue struct {
	name    string
	waiters []*Proc
}

// NewQueue returns a wait queue labelled for deadlock reports.
func NewQueue(name string) *Queue { return &Queue{name: name} }

// Name returns the queue's label.
func (q *Queue) Name() string { return q.name }

// Len reports the number of blocked processes.
func (q *Queue) Len() int { return len(q.waiters) }

// Wait blocks the calling process until another process calls WakeOne or
// WakeAll. Wait does not advance virtual time by itself; the wake-up occurs
// at the waker's current time.
func (p *Proc) Wait(q *Queue) {
	p.state = procBlocked
	p.blockedOn = q.name
	p.blockedSince = p.engine.now
	p.waitingIn = q
	q.waiters = append(q.waiters, p)
	p.yield()
	p.waitingIn = nil
	p.blockedOn = ""
}

// remove deletes p from the wait queue (if present), preserving FIFO
// order of the remaining waiters.
func (q *Queue) remove(p *Proc) {
	for i, w := range q.waiters {
		if w == p {
			copy(q.waiters[i:], q.waiters[i+1:])
			q.waiters[len(q.waiters)-1] = nil
			q.waiters = q.waiters[:len(q.waiters)-1]
			return
		}
	}
}

// WakeOne resumes the longest-waiting process, if any, scheduling it at the
// current virtual time. It reports whether a process was woken.
func (q *Queue) WakeOne(e *Engine) bool {
	if len(q.waiters) == 0 {
		return false
	}
	p := q.waiters[0]
	copy(q.waiters, q.waiters[1:])
	q.waiters = q.waiters[:len(q.waiters)-1]
	p.state = procSleeping
	ev := e.alloc()
	ev.at = e.now
	ev.proc = p
	e.push(ev)
	return true
}

// WakeAll resumes every waiting process in FIFO order.
func (q *Queue) WakeAll(e *Engine) int {
	n := len(q.waiters)
	for i := 0; i < n; i++ {
		p := q.waiters[i]
		p.state = procSleeping
		ev := e.alloc()
		ev.at = e.now
		ev.proc = p
		e.push(ev)
	}
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
// the process is removed from the queue.
func (p *Proc) WaitForTimeout(q *Queue, d Duration, pred func() bool) bool {
	deadline := p.engine.now.Add(d)
	expired := false
	timer := p.engine.At(deadline, func() {
		expired = true
		// Resume the process only if it is actually blocked on this
		// queue; otherwise it is running and will observe `expired` at
		// its next loop check.
		for i, w := range q.waiters {
			if w == p {
				copy(q.waiters[i:], q.waiters[i+1:])
				q.waiters = q.waiters[:len(q.waiters)-1]
				p.state = procSleeping
				ev := p.engine.alloc()
				ev.at = p.engine.now
				ev.proc = p
				p.engine.push(ev)
				return
			}
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
