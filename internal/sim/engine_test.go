package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != Duration(1500)*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := (Duration(2500) * Microsecond).Milliseconds(); got != 2.5 {
		t.Fatalf("Milliseconds = %v, want 2.5", got)
	}
	if got := Time(3 * Second).Seconds(); got != 3 {
		t.Fatalf("Seconds = %v, want 3", got)
	}
}

func TestTimeAddSaturates(t *testing.T) {
	if Never.Add(Second) != Never {
		t.Fatal("Never.Add should stay Never")
	}
	big := Time(1)
	if big.Add(Duration(Never)) != Never {
		t.Fatal("overflowing Add should saturate at Never")
	}
	if got := Time(10).Add(-3); got != 7 {
		t.Fatalf("Add(-3) = %v, want 7", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{2 * Second, "2s"},
		{3 * Millisecond, "3ms"},
		{4 * Microsecond, "4us"},
		{5 * Nanosecond, "5ns"},
		{7, "7fs"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestCallbackOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(Time(10), func() { order = append(order, 1) })
	e.At(Time(5), func() { order = append(order, 0) })
	e.At(Time(10), func() { order = append(order, 2) }) // same time: insertion order
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("order = %v, want [0 1 2]", order)
	}
	if e.Now() != Time(10) {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
}

func TestCallbackInPastRunsNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(Time(100), func() {
		e.At(Time(1), func() { at = e.Now() }) // in the past
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(100) {
		t.Fatalf("past callback ran at %v, want 100", at)
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var stamps []Time
	e.Spawn("sleeper", func(p *Proc) {
		stamps = append(stamps, p.Now())
		p.Sleep(3 * Nanosecond)
		stamps = append(stamps, p.Now())
		p.Sleep(2 * Nanosecond)
		stamps = append(stamps, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, Time(3 * Nanosecond), Time(5 * Nanosecond)}
	if !reflect.DeepEqual(stamps, want) {
		t.Fatalf("stamps = %v, want %v", stamps, want)
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine()
	var started Time
	e.SpawnAt(Time(42), "late", func(p *Proc) { started = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != Time(42) {
		t.Fatalf("started at %v, want 42", started)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for _, name := range []string{"a", "b"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, fmt.Sprintf("%s%d@%d", name, i, int64(p.Now())))
					p.Sleep(Duration(1+i) * Nanosecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged:\n%v\nvs\n%v", i, got, first)
		}
	}
}

func TestQueueWaitWake(t *testing.T) {
	e := NewEngine()
	q := NewQueue("cond")
	var got Time
	e.Spawn("waiter", func(p *Proc) {
		p.Wait(q)
		got = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(7 * Nanosecond)
		q.WakeOne(e)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != Time(7*Nanosecond) {
		t.Fatalf("woken at %v, want 7ns", got)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	e := NewEngine()
	q := NewQueue("fifo")
	var order []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		i := i
		e.Spawn(name, func(p *Proc) {
			p.Sleep(Duration(i) * Nanosecond) // stagger arrival
			p.Wait(q)
			order = append(order, name)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		for i := 0; i < 4; i++ {
			q.WakeOne(e)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"w0", "w1", "w2", "w3"}) {
		t.Fatalf("wake order = %v", order)
	}
}

func TestWakeAll(t *testing.T) {
	e := NewEngine()
	q := NewQueue("all")
	count := 0
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Wait(q)
			count++
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(Nanosecond)
		if n := q.WakeAll(e); n != 5 {
			t.Errorf("WakeAll woke %d, want 5", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestWaitForPredicateAlreadyTrue(t *testing.T) {
	e := NewEngine()
	q := NewQueue("pred")
	ran := false
	e.Spawn("p", func(p *Proc) {
		p.WaitFor(q, func() bool { return true })
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("WaitFor with true predicate blocked")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	q := NewQueue("orphan")
	e.Spawn("stuck", func(p *Proc) { p.Wait(q) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "stuck") || !strings.Contains(err.Error(), "orphan") {
		t.Fatalf("unhelpful deadlock report: %v", err)
	}
}

// TestUnshardedDeadlockMessageUnchanged pins the deadlock error shape:
// the bare global report, with no event-wheel context.
func TestUnshardedDeadlockMessageUnchanged(t *testing.T) {
	e := NewEngine()
	q := NewQueue("empty-mailbox")
	e.Spawn("reader", func(p *Proc) { p.Wait(q) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "sim: deadlock at ") {
		t.Fatalf("deadlock prefix changed: %s", msg)
	}
	if strings.Contains(msg, "wheel") {
		t.Fatalf("deadlock report mentions wheels: %s", msg)
	}
}

func TestNoDeadlockWhenAllDone(t *testing.T) {
	e := NewEngine()
	e.Spawn("fine", func(p *Proc) { p.Sleep(Nanosecond) })
	if err := e.Run(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(Time(10), func() { fired++ })
	e.At(Time(20), func() { fired++ })
	if err := e.RunUntil(Time(15)); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 after Run", fired)
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(Time(1), func() { fired++; e.Halt() })
	e.At(Time(2), func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d after Halt, want 1", fired)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "units", 2)
	active, peak := 0, 0
	for i := 0; i < 6; i++ {
		e.Spawn(fmt.Sprintf("user%d", i), func(p *Proc) {
			sem.Acquire(p)
			active++
			if active > peak {
				peak = active
			}
			p.Sleep(10 * Nanosecond)
			active--
			sem.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
	if sem.Available() != 2 {
		t.Fatalf("available = %d, want 2", sem.Available())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "try", 1)
	if !sem.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if sem.TryAcquire() {
		t.Fatal("second TryAcquire should fail")
	}
	sem.Release()
	if !sem.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
}

func TestSemaphoreOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-release")
		}
	}()
	e := NewEngine()
	sem := NewSemaphore(e, "over", 1)
	sem.Release()
}

// TestEngineDeterminism runs a randomized mix of sleeping processes twice
// with the same seed and requires identical event traces.
func TestEngineDeterminism(t *testing.T) {
	trace := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var log []string
		q := NewQueue("shared")
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("p%d", i)
			delays := make([]Duration, 5)
			for j := range delays {
				delays[j] = Duration(rng.Intn(50)) * Nanosecond
			}
			e.Spawn(name, func(p *Proc) {
				for _, d := range delays {
					p.Sleep(d)
					log = append(log, fmt.Sprintf("%s@%d", name, int64(p.Now())))
					q.WakeOne(e) // stir the queue
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	for seed := int64(0); seed < 3; seed++ {
		a, b := trace(seed), trace(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: nondeterministic trace", seed)
		}
	}
}

// Property: virtual time as observed by any single process is monotonically
// nondecreasing across arbitrary sleeps.
func TestPropTimeMonotonic(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		ok := true
		e.Spawn("mono", func(p *Proc) {
			last := p.Now()
			for _, r := range raw {
				p.Sleep(Duration(r) * Picosecond)
				if p.Now() < last {
					ok = false
				}
				last = p.Now()
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: total elapsed time equals the sum of the sleeps.
func TestPropSleepSums(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var want Duration
		for _, r := range raw {
			want += Duration(r) * Picosecond
		}
		e.Spawn("sum", func(p *Proc) {
			for _, r := range raw {
				p.Sleep(Duration(r) * Picosecond)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return e.Now() == Time(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineEvents(b *testing.B) {
	e := NewEngine()
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestWaitForTimeoutExpires(t *testing.T) {
	e := NewEngine()
	q := NewQueue("never")
	var got bool
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		got = p.WaitForTimeout(q, 10*Nanosecond, func() bool { return false })
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("timeout wait reported success")
	}
	if at != Time(10*Nanosecond) {
		t.Fatalf("expired at %v, want 10ns", at)
	}
}

func TestWaitForTimeoutSucceedsBeforeDeadline(t *testing.T) {
	e := NewEngine()
	q := NewQueue("cond")
	ready := false
	var got bool
	e.Spawn("waiter", func(p *Proc) {
		got = p.WaitForTimeout(q, 100*Nanosecond, func() bool { return ready })
	})
	e.Spawn("setter", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		ready = true
		q.WakeOne(e)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("wait should have succeeded before the deadline")
	}
}

func TestWaitForTimeoutPredicateAlreadyTrue(t *testing.T) {
	e := NewEngine()
	q := NewQueue("now")
	var got bool
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		got = p.WaitForTimeout(q, 50*Nanosecond, func() bool { return true })
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !got || at != 0 {
		t.Fatalf("already-true predicate: got=%v at=%v", got, at)
	}
}

func TestWaitForTimeoutSpuriousWakeThenExpiry(t *testing.T) {
	// Wakes that do not satisfy the predicate must not defeat the timeout.
	e := NewEngine()
	q := NewQueue("spurious")
	var got bool
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		got = p.WaitForTimeout(q, 20*Nanosecond, func() bool { return false })
		at = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(4 * Nanosecond)
			q.WakeAll(e)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got || at != Time(20*Nanosecond) {
		t.Fatalf("spurious wakes: got=%v at=%v", got, at)
	}
}
