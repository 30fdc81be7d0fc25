package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Future is a single-assignment result: a value, or the error of the
// task that computes it.
type Future[T any] struct {
	done chan struct{} // closed once val and err are set
	val  T
	err  error
	mu   sync.Mutex
	next []func() // run by complete
}

func newFuture[T any]() *Future[T] { return &Future[T]{done: make(chan struct{})} }

// Go runs fn as a task and returns the future of its result. A panic in
// fn becomes the future's error.
func Go[T any](e *Executor, fn func() T) *Future[T] {
	f := newFuture[T]()
	e.launch(func() { f.complete(try(fn)) })
	return f
}

// Then runs fn on f's value as a task launched only once f completes,
// so a waiting chain holds no slot. If f failed, fn does not run and
// the result carries f's error.
func Then[T, U any](e *Executor, f *Future[T], fn func(T) U) *Future[U] {
	out := newFuture[U]()
	f.whenDone(func() {
		if f.err != nil {
			out.complete(*new(U), f.err)
			return
		}
		e.launch(func() { out.complete(try(func() U { return fn(f.val) })) })
	})
	return out
}

// WhenAll resolves once every input has, with their values in input
// order and the error of the first failed input, if any. It takes no
// slot; an empty input resolves at once.
func WhenAll[T any](_ *Executor, fs []*Future[T]) *Future[[]T] {
	out := newFuture[[]T]()
	if len(fs) == 0 {
		out.complete(nil, nil)
		return out
	}
	var pending atomic.Int64
	pending.Store(int64(len(fs)))
	for _, f := range fs {
		f.whenDone(func() {
			if pending.Add(-1) > 0 {
				return
			}
			vals := make([]T, len(fs))
			var err error
			for i, g := range fs {
				vals[i] = g.val
				if err == nil {
					err = g.err
				}
			}
			out.complete(vals, err)
		})
	}
	return out
}

// Wait blocks until f completes and returns its value (zero if it
// failed). Call it outside tasks: a waiting task holds its slot.
func (f *Future[T]) Wait() T {
	<-f.done
	return f.val
}

// Err blocks until f completes and returns its error.
func (f *Future[T]) Err() error {
	<-f.done
	return f.err
}

// try runs fn and returns a panic in it as an error.
func try[T any](fn func() T) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(), nil
}

func (f *Future[T]) complete(v T, err error) {
	f.mu.Lock()
	f.val, f.err = v, err
	close(f.done)
	next := f.next
	f.mu.Unlock()
	for _, fn := range next {
		fn()
	}
}

// whenDone runs fn once f completes: at once if it has, otherwise on
// the goroutine that completes it.
func (f *Future[T]) whenDone(fn func()) {
	f.mu.Lock()
	select {
	case <-f.done:
		f.mu.Unlock()
		fn()
	default:
		f.next = append(f.next, fn)
		f.mu.Unlock()
	}
}
