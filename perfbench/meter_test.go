package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Parent: -1, Name: "rep", Start: 0, End: 100},
		{Parent: 0, Name: "a", Start: 10, End: 30},
		{Parent: 0, Name: "b", Start: 20, End: 50}, // overlaps a: covered 10..50
		{Parent: 2, Name: "c", Start: 25, End: 35},
		{Parent: 0, Name: "d", Start: 90, End: 120}, // clipped to the parent's end
	}
	want := []time.Duration{100 - 40 - 10, 20, 30 - 10, 10, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got, want[i])
		}
	}
}

func TestChromeTraceLoads(t *testing.T) {
	m := &meter{now: tickClock(time.Microsecond), trace: true}
	_, _ = m.time(kindRep, "rep", func() error {
		_, err := m.time(kindLayer, "call", func() error { return nil })
		return err
	})
	var buf bytes.Buffer
	if err := writeChrome(&buf, "test", m.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var complete []chromeEvent
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete = append(complete, e)
		}
	}
	if len(complete) != 2 || complete[1].Args["parent"].(float64) != 0 {
		t.Fatalf("want the call nested under the rep, got %+v", complete)
	}
}

func tickClock(tick time.Duration) func() time.Duration {
	var t time.Duration
	return func() time.Duration {
		t += tick
		return t
	}
}

// plantedClock is an injected span clock: every interval between two
// clock reads costs the innermost open span's price (tick by default),
// so a run's span durations depend only on its call structure and on
// the prices — and raising one price plants a slowdown in exactly one
// layer call.
func plantedClock(m *meter, price map[string]time.Duration) func() time.Duration {
	var t time.Duration
	return func() time.Duration {
		p, ok := price[m.openName()]
		if !ok {
			p = time.Millisecond
		}
		t += p
		return t
	}
}

// TestPlantedSlowdownMovesOnlyItsLayer runs the real port-race
// repetition (on a reduced grid) twice under the injected clock, the
// second time with exec.Execute 25% slower. The exec.Execute row must
// move by exactly that and the metric it maps to (exec_images_per_s)
// must drop; every other row's self time and the simulator-side metric
// must not move.
func TestPlantedSlowdownMovesOnlyItsLayer(t *testing.T) {
	b := &bench{seed: 3, procs: 2, chk: newChecker()}
	w := newPortRace(b)
	w.base.Frame.H = 48
	w.base.TallFrac = 0
	w.base.MaxBatch = 2
	b.m = newMeter(false)
	if err := w.setup(b); err != nil {
		t.Fatal(err)
	}
	const execPrice = 40 * time.Millisecond
	run := func(price time.Duration) ([]layerRow, repOut) {
		m := &meter{trace: true}
		m.now = plantedClock(m, map[string]time.Duration{"exec.Execute": price})
		b.m = m
		out, err := w.rep(b, true)
		if err != nil {
			t.Fatal(err)
		}
		return layerRows(m.spans), out
	}
	baseRows, baseOut := run(execPrice)
	slowRows, slowOut := run(execPrice * 5 / 4)
	if b.chk.failed != 0 {
		t.Fatalf("checks failed: %v", b.chk.failures)
	}

	for _, r := range baseRows {
		s := rowOf(slowRows, r.Name)
		if r.Name == "exec.Execute" {
			if s.SelfMS != r.SelfMS*1.25 {
				t.Errorf("exec.Execute self %v ms -> %v ms, want +25%%", r.SelfMS, s.SelfMS)
			}
			continue
		}
		if s.SelfMS != r.SelfMS || s.Calls != r.Calls {
			t.Errorf("row %s moved: self %v -> %v ms, calls %d -> %d", r.Name, r.SelfMS, s.SelfMS, r.Calls, s.Calls)
		}
	}
	if got, base := slowOut.values["exec_images_per_s"], baseOut.values["exec_images_per_s"]; !(got < base) {
		t.Errorf("exec_images_per_s %v -> %v, want a drop", base, got)
	}
	if !(slowOut.ops/slowOut.wall.Seconds() < baseOut.ops/baseOut.wall.Seconds()) {
		t.Errorf("repetition throughput did not drop")
	}
	if got, base := slowOut.values["sim_points_per_s"], baseOut.values["sim_points_per_s"]; got != base {
		t.Errorf("sim_points_per_s moved %v -> %v; the slowdown was planted in exec only", base, got)
	}
}
