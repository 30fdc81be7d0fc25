// Package trace records per-core activity spans (compute, DMA wait,
// mailbox wait, idle) during a simulation and renders them as a textual
// Gantt chart — the view the paper's Figure 4 sketches for the sequential
// and parallel schedules.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cellport/internal/sim"
)

// Kind classifies a span for rendering and accounting.
type Kind byte

// Span kinds.
const (
	KindCompute Kind = 'C'
	KindDMA     Kind = 'D'
	KindWait    Kind = '.'
	KindIO      Kind = 'I'
)

// Recorder accumulates spans for later rendering and accounting. It is
// the one tracer type: a nil *Recorder means untraced, and its Span and
// Instant return at once, so callers pass it unguarded.
type Recorder struct {
	spans    []Span
	instants []Instant
}

// Span is one recorded activity interval.
type Span struct {
	Lane       string
	Start, End sim.Time
	Kind       Kind
	Label      string
}

// Instant is one recorded point event (a fault injection, a watchdog
// kill) — rendered as an instant marker in the Chrome trace export.
type Instant struct {
	Lane  string
	At    sim.Time
	Label string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Span records one activity interval; a nil recorder discards it. A span
// whose end precedes its start is clipped to zero length at its start: a
// reversed interval is a recording bug, and inventing activity over the
// reversed window (the old swap behaviour) would corrupt busy-time
// accounting and the rendered schedule.
func (r *Recorder) Span(lane string, start, end sim.Time, kind Kind, label string) {
	if r == nil {
		return
	}
	if end < start {
		end = start
	}
	r.spans = append(r.spans, Span{Lane: lane, Start: start, End: end, Kind: kind, Label: label})
}

// Instant records one point event; a nil recorder discards it.
func (r *Recorder) Instant(lane string, at sim.Time, label string) {
	if r == nil {
		return
	}
	r.instants = append(r.instants, Instant{Lane: lane, At: at, Label: label})
}

// Spans returns all recorded spans in recording order.
func (r *Recorder) Spans() []Span { return r.spans }

// Instants returns all recorded point events in recording order.
func (r *Recorder) Instants() []Instant { return r.instants }

// Lanes returns the sorted set of lane names.
func (r *Recorder) Lanes() []string {
	set := map[string]bool{}
	for _, s := range r.spans {
		set[s.Lane] = true
	}
	for _, i := range r.instants {
		set[i.Lane] = true
	}
	lanes := make([]string, 0, len(set))
	for l := range set {
		lanes = append(lanes, l)
	}
	sort.Strings(lanes)
	return lanes
}

// Gantt renders an ASCII Gantt chart with the given number of columns.
// Each cell shows the kind of the activity dominating that time slot.
// An empty recording, or one whose spans are all zero-length (a timeline
// with no extent), renders a well-formed chart with blank bars rather
// than dividing by the width of an empty timeline.
func (r *Recorder) Gantt(w io.Writer, columns int) error {
	if columns < 10 {
		columns = 10
	}
	var tMin, tMax sim.Time = sim.Never, 0
	for _, s := range r.spans {
		if s.Start < tMin {
			tMin = s.Start
		}
		if s.End > tMax {
			tMax = s.End
		}
	}
	if len(r.spans) == 0 {
		_, err := fmt.Fprintln(w, "trace: no spans recorded")
		return err
	}
	span := tMax.Sub(tMin) // may be zero: all spans zero-length
	lanes := r.Lanes()
	width := 0
	for _, l := range lanes {
		if len(l) > width {
			width = len(l)
		}
	}
	for _, lane := range lanes {
		row := make([]float64, columns) // accumulated busy fraction per cell
		kinds := make([]Kind, columns)
		for _, s := range r.spans {
			if span <= 0 || s.Lane != lane || s.Kind == KindWait {
				continue
			}
			f0 := float64(s.Start.Sub(tMin)) / float64(span) * float64(columns)
			f1 := float64(s.End.Sub(tMin)) / float64(span) * float64(columns)
			for c := int(f0); c < columns && float64(c) < f1; c++ {
				lo, hi := f0, f1
				if lo < float64(c) {
					lo = float64(c)
				}
				if hi > float64(c+1) {
					hi = float64(c + 1)
				}
				if hi > lo {
					row[c] += hi - lo
					kinds[c] = s.Kind
				}
			}
		}
		var b strings.Builder
		for c := 0; c < columns; c++ {
			switch {
			case row[c] == 0:
				b.WriteByte(' ')
			case row[c] < 0.5:
				b.WriteByte('-')
			default:
				b.WriteByte(byte(kinds[c]))
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", width, lane, b.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s  %s .. %s  (C=compute D=dma I=io -=partial)\n",
		width, "", tMin, tMax)
	return err
}
