package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestReplayIdenticalEventOrderRecycle: a reset engine dispatches each
// seeded replay exactly as a new one does, whatever run it finished
// before the reset.
func TestReplayIdenticalEventOrderRecycle(t *testing.T) {
	e := NewEngine()
	replayTraceOn(t, e, 7)
	for seed := int64(0); seed < 8; seed++ {
		e.Reset()
		log, count := replayTraceOn(t, e, seed)
		sum := sha256.Sum256([]byte(strings.Join(log, "\n")))
		if got, want := hex.EncodeToString(sum[:]), replayDigests[seed]; got != want.sha256 || count != want.events {
			t.Errorf("seed %d on a reset engine: digest %s with %d events, want %s with %d", seed, got, count, want.sha256, want.events)
		}
	}
}

// TestRecycleResetDropsPending: Reset drops the events a run left
// pending, restarts the clock and the counters, and refuses an engine
// with a live process.
func TestRecycleResetDropsPending(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(5*Nanosecond, func() {})
	e.Run()
	e.After(Nanosecond, func() { fired = true })
	e.Reset()
	if e.Now() != 0 || e.EventCount != 0 || len(e.queue) != 0 {
		t.Fatalf("after Reset: now %v, %d events, %d pending; want all zero", e.Now(), e.EventCount, len(e.queue))
	}
	if err := e.Run(); err != nil || fired {
		t.Fatalf("a dropped event fired (%v, err %v)", fired, err)
	}
	e.Spawn("live", func(*Proc) {})
	defer func() {
		if recover() == nil {
			t.Error("Reset with a live process did not panic")
		}
		e.Run()
	}()
	e.Reset()
}

// TestRecycleStaleTimer: a Timer armed before Reset cannot cancel the
// event of the new run that reuses its event struct at the same place
// in the run.
func TestRecycleStaleTimer(t *testing.T) {
	e := NewEngine()
	stale := e.After(Nanosecond, func() {})
	e.Reset()
	ran := false
	if live := e.After(Nanosecond, func() { ran = true }); live.ev != stale.ev {
		t.Fatal("the new event did not reuse the dropped one's struct")
	}
	stale.Cancel()
	if err := e.Run(); err != nil || !ran {
		t.Fatalf("the new run's event ran %v (err %v); a stale Timer cancelled it", ran, err)
	}
}
