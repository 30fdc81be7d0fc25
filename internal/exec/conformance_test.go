package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cellport/internal/marvel"
	"cellport/internal/trace"
)

// TestScheduleConformance checks that Backend runs the program its
// marvel.Schedule describes. One logical clock ticks on every read of
// every track, so all span endpoints share a total order, and the
// schedule's happens-before edges are checked on the recorded trace:
//
//   - without Overlap, each lane's last span ends before the next
//     launched lane's first span;
//   - with PerLane, a lane's detection comes after its finalize;
//   - without PerLane, every "detect" span comes after the image's last
//     extraction span;
//   - with one buffer, image n's last span ends before "pre img<n+1>";
//   - at no tick are more than W lane spans open.
func TestScheduleConformance(t *testing.T) {
	const images = 3
	w := marvel.Workload{Images: images, W: 352, H: 96, Seed: 11}
	arts := marvel.NewArtifactCache()
	for _, workers := range []int{1, 2, 4} {
		for _, sc := range []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE, marvel.MultiSPE2, marvel.Pipelined} {
			for _, v := range []marvel.Variant{marvel.Naive, marvel.Optimized} {
				t.Run(fmt.Sprintf("W=%d/%v/%v", workers, sc, v), func(t *testing.T) {
					var tick atomic.Int64
					b := NewBackend(Options{
						Workers:    workers,
						Reps:       1,
						Artifacts:  arts,
						Instrument: true,
						Now:        func(string) time.Duration { return time.Duration(tick.Add(1)) },
					})
					defer b.Close()
					run, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: sc, Variant: v})
					if err != nil {
						t.Fatal(err)
					}
					sched, _ := sc.Schedule()
					for _, msg := range conformanceViolations(sched, workers, images, run.Trace.Spans()) {
						t.Error(msg)
					}
				})
			}
		}
	}
}

// laneSpans are one image's spans on one trace lane, in start order.
type laneSpans []trace.Span

func (s laneSpans) last() trace.Span {
	l := s[0]
	for _, x := range s[1:] {
		if x.End > l.End {
			l = x
		}
	}
	return l
}

// conformanceViolations lists every schedule edge the spans break,
// naming the edge, the image and both spans.
func conformanceViolations(sched marvel.Schedule, workers, images int, spans []trace.Span) []string {
	var bad []string
	fail := func(edge string, n int, a, b trace.Span) {
		bad = append(bad, fmt.Sprintf("%s: img%d: %s %q [%d,%d] vs %s %q [%d,%d]",
			edge, n, a.Lane, a.Label, a.Start, a.End, b.Lane, b.Label, b.Start, b.End))
	}
	// byImage[n][lane] holds image n's spans per lane; pre[n] is image n's
	// preprocessing span.
	byImage := make([]map[string]laneSpans, images)
	pre := make([]trace.Span, images)
	for i := range byImage {
		byImage[i] = map[string]laneSpans{}
	}
	for _, s := range spans {
		var n int
		if _, err := fmt.Sscanf(s.Label, "img%d", &n); err != nil || n < 0 || n >= images {
			bad = append(bad, fmt.Sprintf("span %s %q names no image of the batch", s.Lane, s.Label))
			continue
		}
		if s.Lane == "pre" {
			if pre[n].Label != "" {
				bad = append(bad, fmt.Sprintf("img%d preprocessed twice", n))
			}
			pre[n] = s
			continue
		}
		byImage[n][s.Lane] = append(byImage[n][s.Lane], s)
	}
	for n := 0; n < images; n++ {
		lanes := byImage[n]
		var lastExtract, lastAll trace.Span
		for _, id := range sched.Launch {
			ls := lanes[id.String()]
			if len(ls) == 0 {
				bad = append(bad, fmt.Sprintf("img%d: lane %s recorded no spans", n, id))
				return bad
			}
			for _, s := range ls {
				if !strings.Contains(s.Label, "/detect-") && s.End > lastExtract.End {
					lastExtract = s
				}
			}
			if l := ls.last(); l.End > lastAll.End {
				lastAll = l
			}
		}
		if !sched.Overlap {
			for i := 1; i < len(sched.Launch); i++ {
				a, b := lanes[sched.Launch[i-1].String()].last(), lanes[sched.Launch[i].String()][0]
				if a.End >= b.Start {
					fail("serial lanes: previous lane ends before the next starts", n, a, b)
				}
			}
		}
		for _, id := range sched.Launch {
			var fin, det trace.Span
			for _, s := range lanes[id.String()] {
				switch {
				case strings.HasSuffix(s.Label, "/finalize"):
					fin = s
				case strings.Contains(s.Label, "/detect-"):
					det = s
				}
			}
			if sched.PerLane && (det.Label == "" || fin.End >= det.Start) {
				fail("per-lane detection: finalize ends before detect starts", n, fin, det)
			}
		}
		if !sched.PerLane {
			det := lanes["detect"]
			if len(det) != len(sched.Launch) {
				bad = append(bad, fmt.Sprintf("img%d: %d group detections, want %d", n, len(det), len(sched.Launch)))
			}
			for _, d := range det {
				if lastExtract.End >= d.Start {
					fail("group detection: last extraction ends before detect starts", n, lastExtract, d)
				}
			}
			if d := det; len(d) > 0 && d.last().End > lastAll.End {
				lastAll = d.last()
			}
		}
		if sched.Buffers == 1 && n+1 < images && lastAll.End >= pre[n+1].Start {
			fail("one buffer: image ends before the next is preprocessed", n, lastAll, pre[n+1])
		}
	}

	// Width: sweep the lane spans' endpoints in tick order.
	type edge struct {
		at   int64
		open int
		s    trace.Span
	}
	var edges []edge
	for _, s := range spans {
		if s.Lane == "pre" || s.Lane == "detect" {
			continue
		}
		edges = append(edges, edge{int64(s.Start), 1, s}, edge{int64(s.End), -1, s})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	open := map[trace.Span]bool{}
	for _, e := range edges {
		if e.open < 0 {
			delete(open, e.s)
			continue
		}
		open[e.s] = true
		if len(open) > workers {
			var names []string
			for s := range open {
				names = append(names, fmt.Sprintf("%s %q", s.Lane, s.Label))
			}
			sort.Strings(names)
			bad = append(bad, fmt.Sprintf("width: %d lane spans open at tick %d, want at most %d: %s",
				len(open), e.at, workers, strings.Join(names, ", ")))
			break
		}
	}
	return bad
}
