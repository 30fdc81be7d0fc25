// Package exec actually runs the MARVEL kernels, with the slicing,
// buffering depth and placement the simulator models, so `paperbench
// -exp race` can report estimator error against measured wall clock.
//
// Lanes are goroutines: each extraction lane of an image runs on its
// own, and an Executor of width W lets at most W of them compute at
// once, the way the PPE hands independent lanes to SPEs. Go's runtime
// already is the work-stealing scheduler of lightweight threads that
// "Closing the Performance Gap with Modern C++" builds its futures on,
// so the package adds only the width bound and futures that carry a
// value or an error: a panicking task fails its future, not the
// process. Everything here runs in the host's wall-clock domain and
// never touches virtual time (DESIGN.md §14).
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor bounds how many tasks compute at once. Each task is its own
// goroutine that holds one of W slots while it runs, so launching never
// blocks the caller.
type Executor struct {
	slots chan struct{}
	wg    sync.WaitGroup
	ran   atomic.Uint64
}

// New returns an executor of the given width; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{slots: make(chan struct{}, workers)}
}

// Workers reports the width.
func (e *Executor) Workers() int { return cap(e.slots) }

// Stats is a snapshot of the executor's lifetime counters.
type Stats struct {
	// Ran counts finished tasks, panicked ones included.
	Ran uint64
	// Steals is always 0. Its only reader is perfbench's
	// exec.steals_per_task row, and it goes with that row.
	Steals uint64
}

// Stats returns the current counter snapshot.
func (e *Executor) Stats() Stats {
	return Stats{Ran: e.ran.Load()}
}

// Close waits for every task started so far and every task those
// release through Then.
func (e *Executor) Close() { e.wg.Wait() }

// launch runs task on its own goroutine once a slot is free.
func (e *Executor) launch(task func()) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.slots <- struct{}{}
		task()
		<-e.slots
		e.ran.Add(1)
	}()
}
