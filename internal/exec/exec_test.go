package exec

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestExecutorDrainsOnClose(t *testing.T) {
	e := New(4)
	var ran atomic.Int64
	for i := 0; i < 500; i++ {
		e.spawn(nil, func(w *worker) { ran.Add(1) })
	}
	e.Close()
	if got := ran.Load(); got != 500 {
		t.Fatalf("ran %d of 500 tasks after Close", got)
	}
	s := e.Stats()
	if s.Spawned != s.Ran {
		t.Fatalf("spawned %d != ran %d", s.Spawned, s.Ran)
	}
}

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	e := New(0)
	defer e.Close()
	if e.Workers() <= 0 {
		t.Fatalf("Workers() = %d, want > 0", e.Workers())
	}
}

func TestSubmitAfterClosePanics(t *testing.T) {
	e := New(1)
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("spawn on a closed executor did not panic")
		}
	}()
	e.spawn(nil, func(w *worker) {})
}

func TestFutureChain(t *testing.T) {
	e := New(2)
	defer e.Close()
	f := Go(e, func() int { return 3 })
	g := Then(e, f, func(v int) int { return v * 7 })
	h := Then(e, g, func(v int) string {
		if v != 21 {
			t.Errorf("chained value = %d, want 21", v)
		}
		return "done"
	})
	if got := h.Wait(); got != "done" {
		t.Fatalf("Wait() = %q, want %q", got, "done")
	}
}

func TestThenOnCompletedFuture(t *testing.T) {
	e := New(1)
	defer e.Close()
	f := Go(e, func() int { return 10 })
	f.Wait()
	if got := Then(e, f, func(v int) int { return v + 1 }).Wait(); got != 11 {
		t.Fatalf("Then on completed future = %d, want 11", got)
	}
}

func TestWhenAllPreservesInputOrder(t *testing.T) {
	e := New(4)
	defer e.Close()
	var fs []*Future[int]
	for i := 0; i < 64; i++ {
		i := i
		fs = append(fs, Go(e, func() int {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // scramble completion order
			}
			return i
		}))
	}
	vals := WhenAll(e, fs).Wait()
	if len(vals) != 64 {
		t.Fatalf("WhenAll returned %d values, want 64", len(vals))
	}
	for i, v := range vals {
		if v != i {
			t.Fatalf("vals[%d] = %d, want %d (input order must be preserved)", i, v, i)
		}
	}
}

func TestWhenAllEmpty(t *testing.T) {
	e := New(1)
	defer e.Close()
	if vals := WhenAll[int](e, nil).Wait(); vals != nil {
		t.Fatalf("WhenAll(nil) = %v, want nil", vals)
	}
}

func TestDoubleCompletePanics(t *testing.T) {
	e := New(1)
	defer e.Close()
	f := Go(e, func() int { return 1 })
	f.Wait()
	defer func() {
		if recover() == nil {
			t.Fatal("completing a future twice did not panic")
		}
	}()
	f.complete(e, nil, 2)
}

// TestStealRebalances parks a long backlog on one worker's deque and
// checks that siblings steal it: the backlog's tasks are slow enough
// that the owner alone could not finish within the test's patience, and
// every task still runs.
func TestStealRebalances(t *testing.T) {
	e := New(4)
	var ran atomic.Int64
	const n = 512
	var release sync.WaitGroup
	release.Add(1)
	e.spawn(nil, func(w *worker) {
		for i := 0; i < n; i++ {
			e.spawn(w, func(*worker) {
				time.Sleep(50 * time.Microsecond)
				ran.Add(1)
			})
		}
		release.Done()
	})
	release.Wait()
	e.Close()
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d of %d backlog tasks", got, n)
	}
	if s := e.Stats(); s.Steals == 0 {
		t.Fatalf("no steals over a %d-task single-worker backlog: %+v", n, s)
	}
}

// TestStealStorm is the deque's concurrency stress: every worker floods
// its own deque while every other worker steals from it, under the race
// detector in CI. Correctness criterion: nothing lost, nothing doubled.
func TestStealStorm(t *testing.T) {
	const (
		spawners = 8
		perSpawn = 2000
	)
	e := New(spawners)
	var ran atomic.Int64
	var release sync.WaitGroup
	release.Add(spawners)
	for s := 0; s < spawners; s++ {
		e.spawn(nil, func(w *worker) {
			for i := 0; i < perSpawn; i++ {
				e.spawn(w, func(*worker) { ran.Add(1) })
			}
			release.Done()
		})
	}
	release.Wait()
	e.Close()
	if got, want := ran.Load(), int64(spawners*perSpawn); got != want {
		t.Fatalf("ran %d of %d tasks under steal storm", got, want)
	}
	if s := e.Stats(); s.Spawned != s.Ran {
		t.Fatalf("spawned %d != ran %d", s.Spawned, s.Ran)
	}
}

// TestContinuationRunsOnPool asserts a Then continuation runs on a pool
// worker (w != nil), i.e. the locality path, not the caller.
func TestContinuationRunsOnPool(t *testing.T) {
	e := New(2)
	defer e.Close()
	onPool := Then(e, Go(e, func() int { return 1 }), func(int) bool { return true })
	if !onPool.Wait() {
		t.Fatal("continuation did not run")
	}
	s := e.Stats()
	if s.Spawned < 2 {
		t.Fatalf("expected both task and continuation spawned, stats %+v", s)
	}
}

// FuzzDeque drives the deque against a reference slice model with an
// arbitrary op sequence: push, owner pop (must be LIFO), and steal-half
// (must take exactly ceil(n/2) oldest tasks, in age order).
func FuzzDeque(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 1, 1})
	f.Add([]byte{0, 1, 2, 0, 0, 0, 0, 2, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var d, thief deque
		var model, thiefModel []int
		next := 0
		// Task identity: each pushed task records its id when run.
		var popped []int
		push := func(id int) task {
			return func(*worker) { popped = append(popped, id) }
		}
		run := func(tk task) int {
			popped = popped[:0]
			tk(nil)
			if len(popped) != 1 {
				t.Fatalf("task ran %d times", len(popped))
			}
			return popped[0]
		}
		for _, op := range ops {
			switch op % 3 {
			case 0: // owner push
				d.push(push(next))
				model = append(model, next)
				next++
			case 1: // owner pop: LIFO from the model's tail
				tk, ok := d.pop()
				if ok != (len(model) > 0) {
					t.Fatalf("pop ok=%v with model size %d", ok, len(model))
				}
				if !ok {
					continue
				}
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if got := run(tk); got != want {
					t.Fatalf("pop = task %d, want %d (LIFO violated)", got, want)
				}
			case 2: // steal: ceil(n/2) oldest, age order preserved
				n := len(model)
				got := d.stealHalf(&thief)
				want := (n + 1) / 2
				if got != want {
					t.Fatalf("stealHalf moved %d of %d, want %d", got, n, want)
				}
				thiefModel = append(thiefModel, model[:want]...)
				model = append([]int(nil), model[want:]...)
			}
			if d.size() != len(model) || thief.size() != len(thiefModel) {
				t.Fatalf("sizes (%d, %d) diverged from model (%d, %d)",
					d.size(), thief.size(), len(model), len(thiefModel))
			}
		}
		// Drain both deques and check full content equality in pop order.
		for i := len(model) - 1; i >= 0; i-- {
			tk, ok := d.pop()
			if !ok {
				t.Fatalf("victim deque exhausted with %d model tasks left", i+1)
			}
			if got := run(tk); got != model[i] {
				t.Fatalf("victim drain = %d, want %d", got, model[i])
			}
		}
		for i := len(thiefModel) - 1; i >= 0; i-- {
			tk, ok := thief.pop()
			if !ok {
				t.Fatalf("thief deque exhausted with %d model tasks left", i+1)
			}
			if got := run(tk); got != thiefModel[i] {
				t.Fatalf("thief drain = %d, want %d", got, thiefModel[i])
			}
		}
	})
}
