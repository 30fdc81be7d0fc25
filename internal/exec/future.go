package exec

import (
	"sync"
	"sync/atomic"
)

// Future is a single-assignment result cell with continuation chaining:
// work attached with Then runs on the pool as soon as the value is
// ready, scheduled onto the deque of the worker that produced it (the
// value is the continuation's working set, and that worker's cache just
// wrote it). Only code outside the pool should block in Wait; a task
// that needs a future's value must chain on it instead, so no worker is
// ever parked inside a task.
type Future[T any] struct {
	mu    sync.Mutex
	done  bool
	val   T
	conts []task
	// ch is closed exactly once, after val is written; Wait blocks on it
	// and the close orders the write before any reader.
	ch chan struct{}
}

func newFuture[T any]() *Future[T] {
	return &Future[T]{ch: make(chan struct{})}
}

// Go submits fn to the pool and returns the future of its result.
func Go[T any](e *Executor, fn func() T) *Future[T] {
	f := newFuture[T]()
	e.spawn(nil, func(w *worker) { f.complete(e, w, fn()) })
	return f
}

// Then chains fn as a continuation of f: it runs on the pool once f
// completes, receiving f's value, and its own result is again a future.
func Then[T, U any](e *Executor, f *Future[T], fn func(T) U) *Future[U] {
	out := newFuture[U]()
	f.addCont(e, func(w *worker) { out.complete(e, w, fn(f.val)) })
	return out
}

// WhenAll resolves once every input future has, with the values in
// input order. The returned future completes on the worker that
// finished the last input; an empty input resolves immediately.
func WhenAll[T any](e *Executor, fs []*Future[T]) *Future[[]T] {
	out := newFuture[[]T]()
	if len(fs) == 0 {
		out.complete(e, nil, nil)
		return out
	}
	var pending atomic.Int64
	pending.Store(int64(len(fs)))
	for _, f := range fs {
		f.addCont(e, func(w *worker) {
			if pending.Add(-1) == 0 {
				vals := make([]T, len(fs))
				for i, g := range fs {
					vals[i] = g.val
				}
				out.complete(e, w, vals)
			}
		})
	}
	return out
}

// Wait blocks until the future completes and returns its value. Call it
// only from outside the pool (the orchestrator); tasks chain with Then.
func (f *Future[T]) Wait() T {
	<-f.ch
	return f.val
}

// complete assigns the value and schedules the registered continuations
// on w's deque (nil w = the injection queue). Completing twice is a
// programming error and panics.
func (f *Future[T]) complete(e *Executor, w *worker, v T) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		panic("exec: future completed twice")
	}
	f.val = v
	f.done = true
	conts := f.conts
	f.conts = nil
	close(f.ch)
	f.mu.Unlock()
	for _, c := range conts {
		e.spawn(w, c)
	}
}

// addCont registers t to run after completion; if the future is already
// complete the task is submitted immediately.
func (f *Future[T]) addCont(e *Executor, t task) {
	f.mu.Lock()
	if !f.done {
		f.conts = append(f.conts, t)
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	e.spawn(nil, t)
}
