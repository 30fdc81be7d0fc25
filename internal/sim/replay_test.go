package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestSameTimestampFIFOAcrossLanes pins the dispatch order when events
// scheduled ahead of an instant and events scheduled at it, while it is
// the current instant, share a timestamp: insertion (seq) order must win.
func TestSameTimestampFIFOAcrossLanes(t *testing.T) {
	e := NewEngine()
	var order []string
	// A and B are scheduled from t=0 for t=5.
	e.At(Time(5), func() {
		order = append(order, "A")
		// C and D are scheduled at t=5 while now==5, and must run after
		// B (smaller seq, already pending).
		e.At(Time(5), func() { order = append(order, "C") })
		e.After(0, func() { order = append(order, "D") })
	})
	e.At(Time(5), func() { order = append(order, "B") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"A", "B", "C", "D"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestNowLaneTimerCancel cancels a timer armed for the current instant
// and checks it never fires while a later event at that instant still
// does.
func TestNowLaneTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	laterRan := false
	e.At(Time(3), func() {
		tm := e.At(e.Now(), func() { fired = true }) // due now
		tm.Cancel()
		e.At(e.Now(), func() { laterRan = true })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled lane timer fired")
	}
	if !laterRan {
		t.Fatal("event behind the tombstone did not run")
	}
}

// TestTimerRearmFromCallback arms the next timer from a firing timer's own
// callback; the event still being dispatched must not be handed to the
// new arming.
func TestTimerRearmFromCallback(t *testing.T) {
	e := NewEngine()
	var fires []Time
	var fire func()
	fire = func() {
		fires = append(fires, e.Now())
		if len(fires) < 3 {
			e.After(2, fire)
		}
	}
	e.At(Time(2), fire)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{2, 4, 6}; !reflect.DeepEqual(fires, want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
}

// replayTrace runs a randomized workload mixing every scheduling primitive —
// sleeps, zero-sleeps (wake at now), queue wake-ups, timers, timer cancels —
// and records the full dispatch trace plus the final event count.
func replayTrace(t *testing.T, seed int64) ([]string, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var log []string
	q := NewQueue("shared")
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("p%d", i)
		steps := make([]int, 8)
		for j := range steps {
			steps[j] = rng.Intn(6)
		}
		delay := Duration(rng.Intn(20)) * Nanosecond
		e.Spawn(name, func(p *Proc) {
			for _, s := range steps {
				switch s {
				case 0:
					p.Sleep(delay)
				case 1:
					p.Sleep(0) // wake at now
				case 2:
					q.WakeOne(e)
				case 3:
					tm := e.At(p.Now().Add(delay), func() {
						log = append(log, name+":timer@"+e.Now().String())
					})
					if delay%2 == 0 {
						tm.Cancel()
					}
				case 4:
					p.WaitForTimeout(q, 5*Nanosecond, func() bool { return len(q.waiters) > 2 })
				case 5:
					e.After(0, func() { q.WakeAll(e) }) // callback at now
				}
				log = append(log, fmt.Sprintf("%s@%d", name, int64(p.Now())))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return log, e.EventCount
}

// replayDigests pins replayTrace per seed: the SHA-256 of the dispatch
// log (one entry per line) and the final EventCount. Runs that agree with
// each other but dispatch in a different order than the engine always has
// fail here.
var replayDigests = [8]struct {
	sha256 string
	events uint64
}{
	{"ea288edf0eade1016109afd806888120df263b40e003d33f932da3d955f6c151", 136},
	{"79b3abae9e7f95abf726d3b1d6853ca053fc2c0f31c0578ca84343928fefd3df", 137},
	{"78e884618cd1e8912c05a3a423e8985d24c853f5998d77dbc9ecc2202c467e91", 137},
	{"46030c55d4b50d6aa5df1276ea830b25ff3a45964f257f2dc7ed291588b439c1", 139},
	{"03dcfa017f0278603b609e49e86db021724a74aa364bce440498f8193dd2611f", 136},
	{"e7a5c0bc59e7b5bca09cc29a0199f449ba3cb7c763a76306e96b1fa7db546b90", 135},
	{"c9aa6b35d0a16042d9c67bda4adf6d7e877dabeaee226a7f09d9c18dab2ac366", 152},
	{"d7109af87271c05865ce1e700d952671a326b378a98cd9aab83bf7d43a4d5b3c", 140},
}

// TestReplayIdenticalEventOrder is the determinism invariant behind the
// engine fast paths: same inputs ⇒ identical dispatch order and event
// count, across repeated runs and many seeds, and equal to the pinned
// digests.
func TestReplayIdenticalEventOrder(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		first, count := replayTrace(t, seed)
		sum := sha256.Sum256([]byte(strings.Join(first, "\n")))
		if got, want := hex.EncodeToString(sum[:]), replayDigests[seed]; got != want.sha256 || count != want.events {
			t.Errorf("seed %d: digest %s with %d events, want %s with %d", seed, got, count, want.sha256, want.events)
		}
		for rep := 0; rep < 3; rep++ {
			got, gotCount := replayTrace(t, seed)
			if gotCount != count {
				t.Fatalf("seed %d rep %d: EventCount %d, want %d", seed, rep, gotCount, count)
			}
			if !reflect.DeepEqual(got, first) {
				t.Fatalf("seed %d rep %d: trace diverged", seed, rep)
			}
		}
	}
}

// TestEventPoolRecycling sanity-checks the free list: after a burst of
// events drains, subsequent scheduling reuses pooled structs rather than
// growing the pool without bound.
func TestEventPoolRecycling(t *testing.T) {
	e := NewEngine()
	for round := 0; round < 4; round++ {
		for i := 0; i < 100; i++ {
			e.After(Duration(i)*Nanosecond, func() {})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.free); n > 220 {
		t.Fatalf("free list grew to %d events; recycling is not bounding allocations", n)
	}
}

// --- WaitForTimeout edge cases ------------------------------------------

// TestWaitForTimeoutExactDeadlineWake: the waker fires at exactly the
// deadline but was scheduled before the timeout timer, so the wake-up
// dispatches first and the predicate (now true) wins over the expiry.
func TestWaitForTimeoutPredicateTrueAtExpiryInstant(t *testing.T) {
	e := NewEngine()
	q := NewQueue("edge")
	ready := false
	var got bool
	var at Time
	e.Spawn("setter", func(p *Proc) {
		p.Sleep(10 * Nanosecond) // wake event scheduled before waiter's timer
		ready = true
		q.WakeOne(e)
	})
	e.Spawn("waiter", func(p *Proc) {
		got = p.WaitForTimeout(q, 10*Nanosecond, func() bool { return ready })
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !got || at != Time(10*Nanosecond) {
		t.Fatalf("predicate-at-expiry: got=%v at=%v, want success at 10ns", got, at)
	}
}

// TestWaitForTimeoutPredicateWinsEvenAfterTimerFires documents the tie
// rule: the predicate is re-evaluated when the waiter actually resumes, so
// a condition that becomes true at the expiry instant — even via a wake
// dispatched AFTER the timeout timer removed the waiter from the queue —
// still reports success. Expiry only wins when the predicate stays false.
func TestWaitForTimeoutPredicateWinsEvenAfterTimerFires(t *testing.T) {
	e := NewEngine()
	q := NewQueue("edge2")
	ready := false
	var got bool
	var at Time
	e.Spawn("waiter", func(p *Proc) { // spawned first: its timer wins ties
		got = p.WaitForTimeout(q, 10*Nanosecond, func() bool { return ready })
		at = p.Now()
	})
	e.Spawn("setter", func(p *Proc) {
		p.Sleep(10 * Nanosecond) // resumes after the waiter's expiry timer
		ready = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !got || at != Time(10*Nanosecond) {
		t.Fatalf("late-true predicate: got=%v at=%v, want success at 10ns", got, at)
	}
}

// TestWaitForTimeoutExpiryWithSpuriousWakeAtDeadline: a wake landing at
// exactly the deadline with the predicate still false must not defeat the
// timeout; the wait fails at precisely the deadline instant.
func TestWaitForTimeoutExpiryWithSpuriousWakeAtDeadline(t *testing.T) {
	e := NewEngine()
	q := NewQueue("edge3")
	var got bool
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		got = p.WaitForTimeout(q, 10*Nanosecond, func() bool { return false })
		at = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		q.WakeAll(e) // spurious: predicate remains false
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got || at != Time(10*Nanosecond) {
		t.Fatalf("spurious wake at deadline: got=%v at=%v, want failure at 10ns", got, at)
	}
}

// TestWaitForTimeoutZeroDuration: a zero timeout with a false predicate
// expires at the current instant without deadlocking.
func TestWaitForTimeoutZeroDuration(t *testing.T) {
	e := NewEngine()
	q := NewQueue("zero")
	var got bool
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		got = p.WaitForTimeout(q, 0, func() bool { return false })
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got || at != 0 {
		t.Fatalf("zero timeout: got=%v at=%v", got, at)
	}
}

// foreverRun runs a waiter whose predicate turns true at 10ns (or never,
// when satisfied is false) against a waker that wakes the queue at 10ns
// and 20ns, waiting with wait. It returns the dispatch log, the event
// count, the time Run ended at and Run's error.
func foreverRun(t *testing.T, satisfied bool, wait func(p *Proc, q *Queue, pred func() bool)) ([]string, uint64, Time, error) {
	t.Helper()
	e := NewEngine()
	q := NewQueue("forever")
	ready := false
	var log []string
	e.Spawn("waiter", func(p *Proc) {
		wait(p, q, func() bool { return ready })
		log = append(log, "waiter@"+p.Now().String())
	})
	e.Spawn("waker", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Sleep(10 * Nanosecond)
			ready = satisfied
			log = append(log, "wake@"+p.Now().String())
			q.WakeAll(e)
		}
	})
	err := e.Run()
	return log, e.EventCount, e.Now(), err
}

// TestWaitForTimeoutForeverIsWaitFor: a Forever timeout arms no timer, so
// the run dispatches exactly what WaitFor's does, and a wait that never
// succeeds deadlocks at its last real instant instead of expiring at
// Never.
func TestWaitForTimeoutForeverIsWaitFor(t *testing.T) {
	for _, satisfied := range []bool{true, false} {
		var got bool
		forever := func(p *Proc, q *Queue, pred func() bool) { got = p.WaitForTimeout(q, Forever, pred) }
		waitFor := func(p *Proc, q *Queue, pred func() bool) { p.WaitFor(q, pred) }
		log, events, end, err := foreverRun(t, satisfied, forever)
		wantLog, wantEvents, wantEnd, wantErr := foreverRun(t, satisfied, waitFor)
		if !reflect.DeepEqual(log, wantLog) || events != wantEvents || end != wantEnd {
			t.Fatalf("satisfied=%v: Forever dispatched %v (%d events, end %v), WaitFor %v (%d events, end %v)",
				satisfied, log, events, end, wantLog, wantEvents, wantEnd)
		}
		if end == Never {
			t.Fatalf("satisfied=%v: run ended at Never", satisfied)
		}
		if satisfied {
			if err != nil || !got {
				t.Fatalf("satisfied wait: got=%v err=%v, want true and no error", got, err)
			}
			continue
		}
		var de, wantDE *DeadlockError
		if !errors.As(err, &de) || !errors.As(wantErr, &wantDE) || de.At != wantDE.At || de.At != Time(20*Nanosecond) {
			t.Fatalf("unsatisfied wait: err %v, WaitFor err %v; want a deadlock at 20ns from both", err, wantErr)
		}
	}
}

// TestQueueReuseAfterTimedOutWaiter: a timed-out waiter must be fully
// removed from the queue; later waiters keep strict FIFO order and WakeOne
// never resumes the stale process.
func TestQueueReuseAfterTimedOutWaiter(t *testing.T) {
	e := NewEngine()
	q := NewQueue("reuse")
	var order []string
	e.Spawn("loser", func(p *Proc) {
		if p.WaitForTimeout(q, 5*Nanosecond, func() bool { return false }) {
			t.Error("loser should have timed out")
		}
		order = append(order, "loser-timeout")
	})
	for _, name := range []string{"w1", "w2"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			p.Sleep(10 * Nanosecond)
			p.Wait(q)
			order = append(order, name)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(20 * Nanosecond)
		if len(q.waiters) != 2 {
			t.Errorf("queue len = %d after timeout removal, want 2", len(q.waiters))
		}
		q.WakeOne(e)
		q.WakeOne(e)
		if q.WakeOne(e) {
			t.Error("third WakeOne woke a stale waiter")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"loser-timeout", "w1", "w2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}
