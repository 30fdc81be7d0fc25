package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// TestKillBlockedProc kills a process parked on a wait queue: its stack
// must unwind (running defers), it must leave the queue, and the run must
// end cleanly instead of reporting a deadlock.
func TestKillBlockedProc(t *testing.T) {
	e := NewEngine()
	q := &Queue{name: "never-signaled"}
	var finished, unwound bool
	victim := e.Spawn("victim", func(p *Proc) {
		defer func() { unwound = true }()
		p.Wait(q)
		finished = true
	})
	e.Spawn("killer", func(p *Proc) {
		p.Sleep(Microsecond)
		victim.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if finished {
		t.Error("killed process ran past its wait")
	}
	if !unwound {
		t.Error("killed process did not run its deferred functions")
	}
	if len(q.waiters) != 0 {
		t.Errorf("queue still holds %d waiter(s)", len(q.waiters))
	}
	if !victim.killed {
		t.Error("killed = false after Kill")
	}
}

// TestKillPreservesQueueFIFO removes only the killed waiter; the
// remaining waiters keep their FIFO order.
func TestKillPreservesQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := &Queue{name: "fifo"}
	var order []string
	waiter := func(name string) *Proc {
		return e.Spawn(name, func(p *Proc) {
			p.Wait(q)
			order = append(order, name)
		})
	}
	a := waiter("a")
	waiter("b")
	waiter("c")
	e.Spawn("driver", func(p *Proc) {
		p.Sleep(Microsecond)
		a.Kill()
		q.WakeOne(e)
		q.WakeOne(e)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "b" || order[1] != "c" {
		t.Errorf("wake order = %v, want [b c]", order)
	}
}

// TestKillSleepingProc cancels the pending wake event, so a killed
// sleeper neither resumes nor leaves a dangling event.
func TestKillSleepingProc(t *testing.T) {
	e := NewEngine()
	var woke bool
	victim := e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(Millisecond)
		woke = true
	})
	e.Spawn("killer", func(p *Proc) {
		p.Sleep(Microsecond)
		victim.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke {
		t.Error("killed sleeper still woke")
	}
	if got := e.Now(); got != Time(Microsecond) {
		t.Errorf("engine ran to %s, want the kill time %s", got, Time(Microsecond))
	}
}

// TestKillUnstartedProc: a process killed before its first dispatch never
// runs its body.
func TestKillUnstartedProc(t *testing.T) {
	e := NewEngine()
	var ran bool
	victim := e.Spawn("late", func(p *Proc) { ran = true })
	victim.Kill()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Error("killed unstarted process ran its body")
	}
}

// TestKillSelf: a running process that kills itself unwinds at its next
// yield point.
func TestKillSelf(t *testing.T) {
	e := NewEngine()
	var after bool
	e.Spawn("self", func(p *Proc) {
		p.Kill()
		p.Sleep(Microsecond) // the yield where the unwind happens
		after = true
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after {
		t.Error("self-killed process ran past its yield")
	}
}

// TestKillIdempotent: double-kill and kill-after-done are no-ops.
func TestKillIdempotent(t *testing.T) {
	e := NewEngine()
	done := e.Spawn("done", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	done.Kill()
	done.Kill()
}

// TestDeadlockErrorTyped: an event-queue-empty-with-blocked-processes run
// surfaces a *DeadlockError carrying every stuck process, its wait queue
// (the wait cause), and when it blocked. Before Run returns, every stuck
// process is unwound: its deferred functions run and nothing of it is
// left running on the host.
func TestDeadlockErrorTyped(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEngine()
	qa := &Queue{name: "orphan-a"}
	qb := &Queue{name: "orphan-b"}
	unwound := map[string]bool{}
	e.Spawn("stuck-2", func(p *Proc) {
		defer func() { unwound["stuck-2"] = true }()
		p.Sleep(2 * Microsecond)
		p.Wait(qb)
	})
	e.Spawn("stuck-1", func(p *Proc) {
		defer func() { unwound["stuck-1"] = true }()
		p.Sleep(Microsecond)
		p.Wait(qa)
	})
	err := e.Run()
	if !unwound["stuck-1"] || !unwound["stuck-2"] {
		t.Errorf("deferred functions run after the deadlock: %v, want both stuck processes", unwound)
	}
	// A goroutine from the previous test may still be exiting, so the
	// count may drop below the baseline; it must not rise above it.
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines after the deadlock = %d, want at most the baseline %d", n, baseline)
	}
	if len(qa.waiters)+len(qb.waiters) != 0 {
		t.Errorf("unwound processes still wait on their queues: %d, %d", len(qa.waiters), len(qb.waiters))
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run error %T (%v), want *DeadlockError", err, err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("Blocked = %v, want 2 entries", dl.Blocked)
	}
	// Sorted by name: stuck-1 first.
	b0, b1 := dl.Blocked[0], dl.Blocked[1]
	if b0.Name != "stuck-1" || b0.Queue != "orphan-a" || b0.Since != Time(Microsecond) {
		t.Errorf("Blocked[0] = %+v", b0)
	}
	if b1.Name != "stuck-2" || b1.Queue != "orphan-b" || b1.Since != Time(2*Microsecond) {
		t.Errorf("Blocked[1] = %+v", b1)
	}
	if dl.At != Time(2*Microsecond) {
		t.Errorf("At = %s", dl.At)
	}
}

// TestRunCallbackPanicError: a panic in an engine callback (an At/After
// completion, not a process body) comes back from Run as an error naming
// the panic value, with every live process unwound and no coroutine
// left parked on the host.
func TestRunCallbackPanicError(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEngine()
	q := &Queue{name: "never-signaled"}
	var unwound bool
	e.Spawn("waiter", func(p *Proc) {
		defer func() { unwound = true }()
		p.Wait(q)
	})
	e.After(Microsecond, func() { panic("completion boom") })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "completion boom") || !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("Run error = %v, want the callback's panic value and stack", err)
	}
	if !unwound {
		t.Error("the blocked process was not unwound")
	}
	if len(e.procs) != 0 {
		t.Errorf("%d processes still live after the panic", len(e.procs))
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines after the panic = %d, want at most the baseline %d", n, baseline)
	}
}
