package exec

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"cellport/internal/img"
	"cellport/internal/marvel"
	"cellport/internal/metrics"
	"cellport/internal/trace"
)

// Backend runs MARVEL batch points for real.
// Each launched lane is one goroutine, and at most Workers of them
// compute at once. A kernel follows the simulated kernel's slice plan
// (marvel.ExecPlan), and each image runs the scenario's marvel.Schedule:
// its launch order, lane overlap, per-lane or group detection and
// pixel-buffer count. The accumulators are marvel's own, so outputs are
// bit-exact against the host references at any width. A panic, on a
// lane or on the orchestrator, does not kill the process: Execute
// returns it as an error naming the track and the image. Everything
// Backend measures is host wall clock, encoded in traces via
// trace.WallNanos.
type Backend struct {
	o  Options
	ex *Executor

	// traceMu guards spans: lanes record concurrently. The instrumented
	// rep's spans are sorted before they reach the trace.Recorder.
	traceMu sync.Mutex
	tracing bool
	spans   []trace.Span
}

// Options configures a Backend.
type Options struct {
	// Workers is how many lanes may compute at once (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// Reps is how many times Execute runs each point's batch, keeping
	// the fastest wall time (<= 0 selects DefaultReps). Outputs come from
	// the last rep.
	Reps int
	// Artifacts supplies the model set; nil means
	// marvel.SharedArtifacts().
	Artifacts *marvel.ArtifactCache
	// Instrument records wall-clock spans and "exec" metrics on each
	// returned run.
	Instrument bool
	// Now overrides the wall clock (elapsed time since an arbitrary
	// epoch). It is read per trace track: "batch" (Execute's wall
	// measurement), "pre", a kernel lane, or "detect". Reads on one track
	// never overlap, but tracks are read concurrently, so Now must be
	// safe for concurrent use. Nil selects the host monotonic clock.
	Now func(track string) time.Duration
}

// DefaultReps is the repetition count Options.Reps <= 0 selects.
const DefaultReps = 3

// NewBackend returns a backend; Close waits for the lanes it started.
func NewBackend(o Options) *Backend {
	if o.Reps <= 0 {
		o.Reps = DefaultReps
	}
	o.Artifacts = cmp.Or(o.Artifacts, marvel.SharedArtifacts())
	if o.Now == nil {
		start := time.Now()
		o.Now = func(string) time.Duration { return time.Since(start) }
	}
	return &Backend{o: o, ex: New(o.Workers)}
}

// Close waits until every lane the backend started has returned.
func (b *Backend) Close() { b.ex.Close() }

// Workers reports how many lanes may compute at once.
func (b *Backend) Workers() int { return b.ex.Workers() }

// span records one wall-clock span when instrumenting the current rep;
// only then does it format the label.
func (b *Backend) span(lane string, start, end time.Duration, kind trace.Kind, label func() string) {
	if !b.tracing {
		return
	}
	b.traceMu.Lock()
	b.spans = append(b.spans, trace.Span{Lane: lane, Start: trace.WallNanos(start.Nanoseconds()),
		End: trace.WallNanos(end.Nanoseconds()), Kind: kind, Label: label()})
	b.traceMu.Unlock()
}

// takeTrace returns the instrumented rep's spans as a recorder, ordered
// by start time, then end, lane and label.
func (b *Backend) takeTrace() *trace.Recorder {
	spans := b.spans
	b.tracing, b.spans = false, nil
	slices.SortFunc(spans, func(x, y trace.Span) int {
		return cmp.Or(cmp.Compare(x.Start, y.Start), cmp.Compare(x.End, y.End),
			strings.Compare(x.Lane, y.Lane), strings.Compare(x.Label, y.Label))
	})
	rec := trace.NewRecorder()
	for _, s := range spans {
		rec.Span(s.Lane, s.Start, s.End, s.Kind, s.Label)
	}
	return rec
}

// Execute runs the point's batch Reps times and reports the fastest
// wall time together with the outputs of the final rep.
func (b *Backend) Execute(p marvel.ExecPoint) (*marvel.ExecRun, error) {
	w := p.Workload
	if err := w.Check(); err != nil {
		return nil, err
	}
	sched, err := p.Scenario.Schedule()
	if err != nil {
		return nil, err
	}
	ms, err := b.o.Artifacts.ModelSet(w.Seed)
	if err != nil {
		return nil, err
	}
	plans := map[marvel.KernelID][]img.Slice{}
	for _, id := range marvel.ExtractKernels {
		if plans[id], err = marvel.ExecPlan(id, p.Variant, w.W, w.H); err != nil {
			return nil, err
		}
	}
	st := &batchState{b: b, w: w, ms: ms, plans: plans, stride: img.StrideFor(w.W)}
	for i := 0; i < sched.Buffers; i++ {
		st.bufs = append(st.bufs, make([]byte, st.stride*w.H))
	}

	run := &marvel.ExecRun{Workers: b.ex.Workers(), Reps: b.o.Reps}
	for rep := 0; rep < b.o.Reps; rep++ {
		b.tracing, b.spans = b.o.Instrument && rep == b.o.Reps-1, nil
		t0 := b.o.Now("batch")
		images, err := st.run(sched)
		if err != nil {
			return nil, err
		}
		wall := (b.o.Now("batch") - t0).Nanoseconds()
		if run.WallNS == 0 || wall < run.WallNS {
			run.WallNS = wall
		}
		run.Images = images
	}
	if b.o.Instrument {
		run.Trace = b.takeTrace()
		reg := metrics.NewRegistry()
		reg.Counter("exec", "wall_ns", run.WallNS)
		reg.Gauge("exec", "workers", int64(run.Workers))
		reg.Gauge("exec", "reps", int64(run.Reps))
		run.Metrics = reg.Snapshot()
	}
	return run, nil
}

// laneOut is one lane's feature vector and float32-rounded score.
type laneOut struct {
	id    marvel.KernelID
	vec   []float32
	score float64
}

// batchState carries one point's buffers through its reps.
type batchState struct {
	b      *Backend
	w      marvel.Workload
	ms     *marvel.ModelSet
	plans  map[marvel.KernelID][]img.Slice
	stride int
	bufs   [][]byte
}

// preprocess regenerates image n (the decode analog of the PPE's
// per-image preprocessing — real per-pixel work, not a memcpy of a
// cached frame) and stores it strided into pixel buffer n%len(bufs).
func (st *batchState) preprocess(n int) {
	t0 := st.b.o.Now("pre")
	dec := img.Synthesize(img.CorpusSeed(st.w.Seed, n), st.w.W, st.w.H)
	dst := st.bufs[n%len(st.bufs)]
	for y := 0; y < st.w.H; y++ {
		copy(dst[y*st.stride:], dec.Row(y))
	}
	st.b.span("pre", t0, st.b.o.Now("pre"), trace.KindIO, func() string { return fmt.Sprintf("img%d", n) })
}

// lane runs kernel id's lane of image n over pixel buffer buf. Each
// slice wraps its band of the buffer (the analog of the kernel's DMA'd
// local-store band) and folds its payload rows into the accumulator;
// then the lane finalizes and, with perLane, detects.
func (st *batchState) lane(id marvel.KernelID, buf, n int, perLane bool) laneOut {
	acc := marvel.NewAccumulator(id)
	lane := id.String()
	for si, s := range st.plans[id] {
		t0 := st.b.o.Now(lane)
		rows := s.TransferRows()
		band := img.Wrap(st.bufs[buf][s.TransferY0()*st.stride:][:rows*st.stride], st.w.W, rows, st.stride)
		acc.Process(band, s.HaloTop, s.HaloTop+s.PayloadRows())
		st.b.span(lane, t0, st.b.o.Now(lane), trace.KindCompute, func() string { return fmt.Sprintf("img%d/slice%d", n, si) })
	}
	t0 := st.b.o.Now(lane)
	o := laneOut{id: id, vec: acc.Finalize()}
	st.b.span(lane, t0, st.b.o.Now(lane), trace.KindCompute, func() string { return fmt.Sprintf("img%d/finalize", n) })
	if perLane {
		st.detect(&o, lane, n)
	}
	return o
}

// detect scores a finalized lane on trace lane lane, rounding the score
// to float32 exactly as the SPE kernel reports it.
func (st *batchState) detect(o *laneOut, lane string, n int) {
	t0 := st.b.o.Now(lane)
	o.score = float64(float32(st.ms.Decision(o.id, o.vec)))
	st.b.span(lane, t0, st.b.o.Now(lane), trace.KindCompute, func() string { return fmt.Sprintf("img%d/detect-%s", n, o.id) })
}

// run executes one rep of the schedule's per-image loop. Each lane is
// one Go task, waited for before the next without overlap; after the
// WhenAll join a group detection runs on the "detect" lane. With two
// buffers, image n+1 is preprocessed while image n's lanes run. A panic
// on the orchestrator (preprocessing or group detection) comes back,
// once the image's launched lanes have returned, as an error naming its
// track and image.
func (st *batchState) run(sched marvel.Schedule) (out []marvel.ImageResult, err error) {
	var lanes []*Future[laneOut]
	track, at := "pre", 0 // the orchestrator's current step
	defer func() {
		if v := recover(); v != nil {
			WhenAll(st.b.ex, lanes).Wait()
			out, err = nil, fmt.Errorf("exec: %s img%d: panic: %v", track, at, v)
		}
	}()
	pre := func(n int) {
		track, at = "pre", n
		st.preprocess(n)
	}
	images := st.w.Images
	out = make([]marvel.ImageResult, 0, images)
	if sched.Buffers > 1 {
		pre(0)
	}
	for n := 0; n < images; n++ {
		buf := n % sched.Buffers
		if sched.Buffers == 1 {
			pre(n)
		}
		lanes = make([]*Future[laneOut], 0, len(sched.Launch))
		for _, id := range sched.Launch {
			f := Go(st.b.ex, func() laneOut { return st.lane(id, buf, n, sched.PerLane) })
			if !sched.Overlap {
				f.Wait()
			}
			lanes = append(lanes, f)
		}
		if sched.Buffers > 1 && n+1 < images {
			pre(n + 1)
		}
		all := WhenAll(st.b.ex, lanes)
		if err := all.Err(); err != nil {
			i := slices.IndexFunc(lanes, func(f *Future[laneOut]) bool { return f.Err() != nil })
			return nil, fmt.Errorf("exec: %s img%d: %w", sched.Launch[i], n, err)
		}
		outs := all.Wait()
		track, at = "detect", n
		var r marvel.ImageResult
		for i := range outs {
			if !sched.PerLane {
				st.detect(&outs[i], "detect", n)
			}
			r.Put(outs[i].id, outs[i].vec, outs[i].score)
		}
		out = append(out, r)
	}
	return out, nil
}
