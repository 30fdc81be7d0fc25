package sim

import "testing"

func TestTimerFires(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(Time(10), func() { at = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(10) {
		t.Fatalf("timer fired at %v, want 10", at)
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(Time(10), func() { fired = true })
	e.At(Time(5), func() { tm.Cancel() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
	tm.Cancel()      // double-cancel is a no-op
	Timer{}.Cancel() // so is cancelling the zero handle
}

// TestStaleTimerCancelsNothing cancels a handle whose event has fired and
// been recycled for a later arming: the later callback must still run.
func TestStaleTimerCancelsNothing(t *testing.T) {
	e := NewEngine()
	laterRan := false
	stale := e.At(Time(1), func() {})
	e.At(Time(1), func() {
		// The first event has been dispatched and recycled; the free
		// list hands its struct to this arming.
		later := e.At(Time(2), func() { laterRan = true })
		if later.ev != stale.ev {
			t.Fatal("the later timer did not reuse the fired event; the test is vacuous")
		}
		stale.Cancel()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !laterRan {
		t.Fatal("a stale handle cancelled the timer that reused its event")
	}
}
