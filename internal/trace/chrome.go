// Chrome trace-event export: turns recorded spans and instants into the
// JSON Array/Object trace format that chrome://tracing and Perfetto
// (https://ui.perfetto.dev) load directly. Each simulated run becomes one
// process; each lane (PPE, SPE0..7, MFC0..7) becomes one named thread
// track; spans become complete ("X") events and instants become thread-
// scoped instant ("i") events — faults and watchdog kills show up as
// markers on the core that suffered them.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cellport/internal/sim"
)

// ChromeProcess is one simulated run in a Chrome trace: a recorder plus
// the pid/name identifying its track group in the viewer.
type ChromeProcess struct {
	Pid  int
	Name string
	Rec  *Recorder
}

// chromeEvent is one trace event in Chrome's JSON schema. Ts and Dur are
// microseconds (the format's native unit).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

func (k Kind) category() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindDMA:
		return "dma"
	case KindIO:
		return "io"
	default:
		return "wait"
	}
}

// tsMicros converts a virtual timestamp to trace microseconds.
func tsMicros(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// laneOrder ranks lanes for track layout: the PPE first, then SPEs and
// MFCs by index, then anything else alphabetically.
func laneOrder(lane string) (int, int, string) {
	num := func(prefix string) (int, bool) {
		n, err := strconv.Atoi(strings.TrimPrefix(lane, prefix))
		return n, err == nil
	}
	switch {
	case lane == "PPE":
		return 0, 0, lane
	case strings.HasPrefix(lane, "SPE"):
		if n, ok := num("SPE"); ok {
			return 1, n, lane
		}
	case strings.HasPrefix(lane, "MFC"):
		if n, ok := num("MFC"); ok {
			return 2, n, lane
		}
	}
	return 3, 0, lane
}

func laneLess(a, b string) bool {
	ra, na, sa := laneOrder(a)
	rb, nb, sb := laneOrder(b)
	if ra != rb {
		return ra < rb
	}
	if na != nb {
		return na < nb
	}
	return sa < sb
}

// WriteChrome serializes the processes as one Chrome trace document. The
// output is deterministic: processes are emitted in slice order, lanes in
// laneOrder, and events per lane in (start, recording-order) order, so
// per-track timestamps are monotonic.
func WriteChrome(w io.Writer, procs []ChromeProcess) error {
	var events []chromeEvent
	for _, p := range procs {
		if p.Rec == nil {
			continue
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: p.Pid, Tid: 0,
			Args: map[string]string{"name": p.Name},
		})
		lanes := p.Rec.Lanes()
		sort.Slice(lanes, func(i, j int) bool { return laneLess(lanes[i], lanes[j]) })
		tids := make(map[string]int, len(lanes))
		for i, lane := range lanes {
			tid := i + 1
			tids[lane] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: p.Pid, Tid: tid,
				Args: map[string]string{"name": lane},
			})
		}
		// One merged per-lane stream: spans and instants sorted by time
		// with recording order as the tie-break.
		type timed struct {
			at  sim.Time
			seq int
			ev  chromeEvent
		}
		var lane []timed
		for i, s := range p.Rec.Spans() {
			dur := tsMicros(s.End) - tsMicros(s.Start)
			d := dur
			lane = append(lane, timed{at: s.Start, seq: i, ev: chromeEvent{
				Name: s.Label, Cat: s.Kind.category(), Ph: "X",
				Ts: tsMicros(s.Start), Dur: &d, Pid: p.Pid, Tid: tids[s.Lane],
			}})
		}
		n := len(p.Rec.Spans())
		for i, in := range p.Rec.Instants() {
			lane = append(lane, timed{at: in.At, seq: n + i, ev: chromeEvent{
				Name: in.Label, Cat: "fault", Ph: "i", S: "t",
				Ts: tsMicros(in.At), Pid: p.Pid, Tid: tids[in.Lane],
			}})
		}
		sort.Slice(lane, func(i, j int) bool {
			a, b := lane[i], lane[j]
			if a.ev.Tid != b.ev.Tid {
				return a.ev.Tid < b.ev.Tid
			}
			if a.at != b.at {
				return a.at < b.at
			}
			return a.seq < b.seq
		})
		for _, t := range lane {
			events = append(events, t.ev)
		}
	}

	// One event per line keeps the artifact diffable and golden-testable.
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
