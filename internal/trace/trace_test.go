package trace

import (
	"strings"
	"testing"

	"cellport/internal/sim"
)

// busyTime sums the durations of r's spans of the given kind per lane.
func busyTime(r *Recorder, kind Kind) map[string]sim.Duration {
	out := map[string]sim.Duration{}
	for _, s := range r.Spans() {
		if s.Kind == kind {
			out[s.Lane] += s.End.Sub(s.Start)
		}
	}
	return out
}

func TestNilRecorderDiscards(t *testing.T) {
	var r *Recorder
	r.Span("x", 0, 10, KindCompute, "ok") // must not panic
	r.Instant("x", 5, "ok")
}

func TestRecorderAccumulates(t *testing.T) {
	r := NewRecorder()
	r.Span("PPE", 0, sim.Time(10*sim.Microsecond), KindCompute, "a")
	r.Span("SPE0", sim.Time(5*sim.Microsecond), sim.Time(15*sim.Microsecond), KindDMA, "b")
	r.Span("PPE", sim.Time(12*sim.Microsecond), sim.Time(20*sim.Microsecond), KindIO, "c")
	if len(r.Spans()) != 3 {
		t.Fatalf("spans = %d", len(r.Spans()))
	}
	lanes := r.Lanes()
	if len(lanes) != 2 || lanes[0] != "PPE" || lanes[1] != "SPE0" {
		t.Fatalf("lanes = %v", lanes)
	}
	busy := busyTime(r, KindCompute)
	if busy["PPE"] != 10*sim.Microsecond {
		t.Fatalf("PPE compute = %v", busy["PPE"])
	}
	if busy["SPE0"] != 0 {
		t.Fatalf("SPE0 compute = %v, want 0 (span is DMA)", busy["SPE0"])
	}
}

func TestSpanClipsReversedEndpoints(t *testing.T) {
	// A reversed interval is a recording bug; the recorder must not invent
	// activity over the reversed window (the old swap behaviour inflated
	// busy time), so it clips to zero length at the start timestamp.
	r := NewRecorder()
	r.Span("L", sim.Time(20), sim.Time(10), KindCompute, "rev")
	s := r.Spans()[0]
	if s.Start != 20 || s.End != 20 {
		t.Fatalf("span = %+v, want clipped to [20,20]", s)
	}
	if busy := busyTime(r, KindCompute)["L"]; busy != 0 {
		t.Fatalf("reversed span contributed %v busy time", busy)
	}
}

func TestGanttZeroDuration(t *testing.T) {
	// All spans zero-length: the timeline has no extent, but the chart must
	// still render every lane plus the footer instead of dividing by zero.
	r := NewRecorder()
	r.Span("PPE", sim.Time(5), sim.Time(5), KindCompute, "x")
	r.Span("SPE0", sim.Time(5), sim.Time(5), KindDMA, "y")
	var sb strings.Builder
	if err := r.Gantt(&sb, 20); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // two lanes + footer
		t.Fatalf("zero-duration gantt rendered %d lines:\n%s", len(lines), out)
	}
	for _, needle := range []string{"PPE", "SPE0"} {
		if !strings.Contains(out, needle) {
			t.Errorf("gantt missing lane %q:\n%s", needle, out)
		}
	}
}

func TestInstantsRecordedAndClipped(t *testing.T) {
	r := NewRecorder()
	r.Instant("SPE1", sim.Time(30), "fault: dma-drop")
	r.Instant("SPE2", sim.Time(500), "fault: mbox-stall")
	if got := len(r.Instants()); got != 2 {
		t.Fatalf("instants = %d, want 2", got)
	}
	lanes := r.Lanes()
	if len(lanes) != 2 || lanes[0] != "SPE1" || lanes[1] != "SPE2" {
		t.Fatalf("lanes = %v", lanes)
	}
	if got := r.Instants()[0]; got.Lane != "SPE1" || got.At != 30 || got.Label != "fault: dma-drop" {
		t.Fatalf("first instant = %+v", got)
	}
}

func TestGanttRendering(t *testing.T) {
	r := NewRecorder()
	r.Span("PPE", 0, sim.Time(50*sim.Microsecond), KindIO, "io")
	r.Span("PPE", sim.Time(50*sim.Microsecond), sim.Time(100*sim.Microsecond), KindCompute, "c")
	r.Span("SPE0", sim.Time(60*sim.Microsecond), sim.Time(90*sim.Microsecond), KindCompute, "k")
	var sb strings.Builder
	if err := r.Gantt(&sb, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, needle := range []string{"PPE", "SPE0", "I", "C"} {
		if !strings.Contains(out, needle) {
			t.Errorf("gantt missing %q:\n%s", needle, out)
		}
	}
	// The PPE line must show I before C.
	ppeLine := strings.Split(out, "\n")[0]
	if strings.Index(ppeLine, "I") > strings.Index(ppeLine, "C") {
		t.Errorf("I should precede C on the PPE lane: %s", ppeLine)
	}
}

func TestGanttEmpty(t *testing.T) {
	var sb strings.Builder
	if err := NewRecorder().Gantt(&sb, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no spans") {
		t.Fatalf("empty gantt output: %s", sb.String())
	}
}

func TestGanttMinimumColumns(t *testing.T) {
	r := NewRecorder()
	r.Span("L", 0, sim.Time(sim.Microsecond), KindCompute, "x")
	var sb strings.Builder
	if err := r.Gantt(&sb, 1); err != nil { // clamps to 10
		t.Fatal(err)
	}
	line := strings.Split(sb.String(), "\n")[0]
	if len(line) < 10 {
		t.Fatalf("line too short: %q", line)
	}
}

func TestWaitSpansExcludedFromGanttBars(t *testing.T) {
	r := NewRecorder()
	r.Span("L", 0, sim.Time(100), KindWait, "idle")
	var sb strings.Builder
	if err := r.Gantt(&sb, 20); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Split(sb.String(), "\n")[0], string(rune(KindWait))) &&
		strings.Contains(sb.String(), "|.") {
		t.Error("wait spans should render blank")
	}
}
