package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span kinds, outermost first: a workload holds repetitions, a
// repetition holds phases, and a phase holds calls into the program's
// layers.
const (
	kindWorkload = "workload"
	kindRep      = "rep"
	kindPhase    = "phase"
	kindLayer    = "layer"
)

// span is one timed call recorded by a traced meter. Parent is the index
// of the enclosing span, -1 for a root.
type span struct {
	Parent     int
	Kind, Name string
	Start, End time.Duration
}

// meter times calls made from the benchmark's own code. Untraced, it
// only reads the clock around each call; traced, it also records every
// call as a span nested under the innermost open one. A meter is used
// from one goroutine.
type meter struct {
	now   func() time.Duration
	trace bool
	spans []span
	open  []int
}

// newMeter returns a meter on the host monotonic clock.
func newMeter(trace bool) *meter {
	t0 := time.Now()
	return &meter{now: func() time.Duration { return time.Since(t0) }, trace: trace}
}

// time runs fn and returns its wall time, recording a span when traced.
func (m *meter) time(kind, name string, fn func() error) (time.Duration, error) {
	start := m.now()
	idx := -1
	if m.trace {
		parent := -1
		if n := len(m.open); n > 0 {
			parent = m.open[n-1]
		}
		idx = len(m.spans)
		m.spans = append(m.spans, span{Parent: parent, Kind: kind, Name: name, Start: start})
		m.open = append(m.open, idx)
	}
	err := fn()
	end := m.now()
	if idx >= 0 {
		m.spans[idx].End = end
		m.open = m.open[:len(m.open)-1]
	}
	return end - start, err
}

// openName is the name of the innermost open span ("" outside any).
func (m *meter) openName() string {
	if n := len(m.open); n > 0 {
		return m.spans[m.open[n-1]].Name
	}
	return ""
}

// layerRow aggregates every span of one name: how often it ran, its
// total wall time, and its self time — the part of its spans that no
// child span covers.
type layerRow struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes returns each span's duration minus the union of its
// children's intervals (clipped to the span).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range iv {
			if v[0] > reach {
				reach = v[0]
			}
			if v[1] > reach {
				covered += v[1] - reach
				reach = v[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerRows folds spans into one row per name, sorted by self time
// (largest first, then by name).
func layerRows(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	var order []string
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name, Kind: s.Kind}
			byName[s.Name] = r
			order = append(order, s.Name)
		}
		r.Calls++
		r.TotalMS += ms(s.End - s.Start)
		r.SelfMS += ms(self[i])
	}
	rows := make([]layerRow, 0, len(order))
	for _, n := range order {
		rows = append(rows, *byName[n])
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].SelfMS != rows[j].SelfMS {
			return rows[i].SelfMS > rows[j].SelfMS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// row returns the row for a name (zero row when absent).
func rowOf(rows []layerRow, name string) layerRow {
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	return layerRow{Name: name}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace: one complete event per
// span on a single host-wall-clock thread, nesting by time containment,
// with each span's id and parent id in its args.
func writeChrome(w io.Writer, process string, spans []span) error {
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: 1, TID: 1, Args: map[string]any{"name": process}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: 1, Args: map[string]any{"name": "bench (host wall clock)"}},
	}
	for i, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  s.Kind,
			Ph:   "X",
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			PID:  1,
			TID:  1,
			Args: map[string]any{"id": i, "parent": s.Parent},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
