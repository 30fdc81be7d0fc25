package exec

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cellport/internal/img"
	"cellport/internal/marvel"
	"cellport/internal/metrics"
	"cellport/internal/trace"
)

// Backend runs MARVEL batch points for real on the work-stealing pool,
// as a marvel.ExecBackend. The task graph mirrors what the simulator
// charges for, structurally:
//
//   - each extraction kernel's image traversal follows the simulated
//     kernel's own slice plan (marvel.ExecPlan — same local-store
//     budget, halos and granularity), with the slices of one lane
//     chained as continuations so a lane runs its slices in order;
//   - each image runs the scenario's marvel.Schedule, the description
//     the simulated port runs: its launch order, whether lanes overlap,
//     per-lane or group detection, and its pixel-buffer count. Job
//     distribution (MultiSPE2) thus races the four
//     extraction→finalize→detection lanes with preprocessing serial
//     between images, and data distribution (Pipelined) double-buffers
//     the pixel block and preprocesses image i+1 while image i's lanes
//     run — the same overlap the estimator credits the scheme with;
//   - the accumulators are marvel's own (marvel.NewAccumulator), so
//     outputs are bit-exact against the host references at any worker
//     count: parallelism is across lanes and slices of independent
//     accumulators, never inside one.
//
// Everything it measures is host wall clock; nothing here touches
// virtual time except to encode trace timestamps via trace.WallNanos.
type Backend struct {
	ex         *Executor
	arts       *marvel.ArtifactCache
	reps       int
	instrument bool
	now        func(track string) time.Duration

	// traceMu serializes span recording: lanes finish concurrently. The
	// spans of the instrumented rep are sorted before they reach the
	// trace.Recorder, so the recorded order never depends on which lane
	// finished first.
	traceMu sync.Mutex
	tracing bool
	spans   []trace.Span
}

// Options configures a Backend.
type Options struct {
	// Workers is the pool width (<= 0 selects GOMAXPROCS).
	Workers int
	// Reps is how many times Execute runs each point's graph, keeping
	// the fastest wall time (default 3). Outputs come from the last rep.
	Reps int
	// Artifacts supplies the model set and host references; nil computes
	// privately.
	Artifacts *marvel.ArtifactCache
	// Instrument records wall-clock spans and "exec" metrics on each
	// returned run.
	Instrument bool
	// Now overrides the wall clock (elapsed time since an arbitrary
	// epoch), read for one trace track at a time: the batch track
	// ("batch", the orchestrator's wall measurement), "pre", a kernel
	// lane, or "detect". Reads on one track never overlap, but different
	// tracks are read concurrently (under Pipelined the orchestrator
	// preprocesses while the lanes run), so Now must be safe for
	// concurrent use. Tests inject a deterministic per-track clock; nil
	// selects the host monotonic clock for every track.
	Now func(track string) time.Duration
}

// NewBackend starts a backend and its worker pool; Close releases the
// workers.
func NewBackend(o Options) *Backend {
	b := &Backend{
		ex:         New(o.Workers),
		arts:       o.Artifacts,
		reps:       o.Reps,
		instrument: o.Instrument,
		now:        o.Now,
	}
	if b.reps <= 0 {
		b.reps = 3
	}
	if b.now == nil {
		start := time.Now()
		b.now = func(string) time.Duration { return time.Since(start) }
	}
	return b
}

// Close stops the worker pool after draining.
func (b *Backend) Close() { b.ex.Close() }

// Workers reports the pool width.
func (b *Backend) Workers() int { return b.ex.Workers() }

// batchTrack is the clock track of Execute's per-rep wall measurement.
const batchTrack = "batch"

// span records one wall-clock span when instrumenting the current rep.
func (b *Backend) span(lane string, start, end time.Duration, kind trace.Kind, label string) {
	if !b.tracing {
		return
	}
	b.traceMu.Lock()
	b.spans = append(b.spans, trace.Span{Lane: lane, Start: trace.WallNanos(start.Nanoseconds()),
		End: trace.WallNanos(end.Nanoseconds()), Kind: kind, Label: label})
	b.traceMu.Unlock()
}

// takeTrace returns the instrumented rep's spans as a recorder, ordered
// by start time, then end, lane and label.
func (b *Backend) takeTrace() *trace.Recorder {
	spans := b.spans
	b.tracing, b.spans = false, nil
	sort.Slice(spans, func(i, j int) bool {
		x, y := spans[i], spans[j]
		switch {
		case x.Start != y.Start:
			return x.Start < y.Start
		case x.End != y.End:
			return x.End < y.End
		case x.Lane != y.Lane:
			return x.Lane < y.Lane
		default:
			return x.Label < y.Label
		}
	})
	rec := trace.NewRecorder()
	for _, s := range spans {
		rec.Span(s.Lane, s.Start, s.End, s.Kind, s.Label)
	}
	return rec
}

// Execute implements marvel.ExecBackend: it runs the point's batch
// graph Reps times and reports the fastest wall time together with the
// outputs of the final rep.
func (b *Backend) Execute(p marvel.ExecPoint) (*marvel.ExecRun, error) {
	w := p.Workload
	if err := w.Check(); err != nil {
		return nil, err
	}
	sched, err := p.Scenario.Schedule()
	if err != nil {
		return nil, err
	}
	ms, err := b.arts.ModelSet(w.Seed)
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

	run := &marvel.ExecRun{Workers: b.ex.Workers(), Reps: b.reps}
	var reg *metrics.Registry
	for rep := 0; rep < b.reps; rep++ {
		last := rep == b.reps-1
		b.tracing, b.spans = b.instrument && last, nil
		s0 := b.ex.Stats()
		t0 := b.now(batchTrack)
		images := st.run(sched)
		wall := (b.now(batchTrack) - t0).Nanoseconds()
		if run.WallNS == 0 || wall < run.WallNS {
			run.WallNS = wall
		}
		if last {
			s1 := b.ex.Stats()
			run.Images = images
			run.Tasks = s1.Ran - s0.Ran
			run.Steals = s1.Steals - s0.Steals
			run.Stolen = s1.Stolen - s0.Stolen
		}
	}
	if b.instrument {
		run.Trace = b.takeTrace()
		reg = metrics.NewRegistry()
		reg.Counter("exec", "wall_ns").Add(run.WallNS)
		reg.Counter("exec", "tasks").Add(int64(run.Tasks))
		reg.Counter("exec", "steals").Add(int64(run.Steals))
		reg.Counter("exec", "stolen").Add(int64(run.Stolen))
		reg.Gauge("exec", "workers").Set(int64(run.Workers))
		reg.Gauge("exec", "reps").Set(int64(run.Reps))
		run.Metrics = reg.Snapshot()
	}
	return run, nil
}

// laneOut is one extraction lane's result: the finalized feature vector
// and (when the lane chain includes detection) the float32-rounded
// concept score.
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
	w := st.w
	t0 := st.b.now("pre")
	dec := img.Synthesize(img.CorpusSeed(w.Seed, n), w.W, w.H)
	dst := st.bufs[n%len(st.bufs)]
	for y := 0; y < w.H; y++ {
		copy(dst[y*st.stride:], dec.Row(y))
	}
	st.b.span("pre", t0, st.b.now("pre"), trace.KindIO, fmt.Sprintf("img%d", n))
}

// processSlice runs one slice of a lane: wrap the band in the pixel
// buffer (the analog of the kernel's view of its DMA'd local-store
// band) and fold its payload rows into the accumulator.
func (st *batchState) processSlice(acc marvel.Accumulator, buf int, s img.Slice, lane string, n, si int) {
	t0 := st.b.now(lane)
	rows := s.TransferRows()
	band := img.Wrap(st.bufs[buf][s.TransferY0()*st.stride:][:rows*st.stride], st.w.W, rows, st.stride)
	acc.Process(band, s.HaloTop, s.HaloTop+s.PayloadRows())
	st.b.span(lane, t0, st.b.now(lane), trace.KindCompute, fmt.Sprintf("img%d/slice%d", n, si))
}

// extractLane builds one kernel's slice chain over pixel buffer buf for
// image n: slice i+1 is a continuation of slice i (so the lane stays on
// one worker unless stolen), ending in finalize.
func (st *batchState) extractLane(id marvel.KernelID, buf, n int) *Future[laneOut] {
	slices := st.plans[id]
	acc := marvel.NewAccumulator(id)
	lane := id.String()
	f := Go(st.b.ex, func() struct{} {
		st.processSlice(acc, buf, slices[0], lane, n, 0)
		return struct{}{}
	})
	for si := 1; si < len(slices); si++ {
		si := si
		f = Then(st.b.ex, f, func(struct{}) struct{} {
			st.processSlice(acc, buf, slices[si], lane, n, si)
			return struct{}{}
		})
	}
	return Then(st.b.ex, f, func(struct{}) laneOut {
		t0 := st.b.now(lane)
		vec := acc.Finalize()
		st.b.span(lane, t0, st.b.now(lane), trace.KindCompute, fmt.Sprintf("img%d/finalize", n))
		return laneOut{id: id, vec: vec}
	})
}

// detectOn evaluates a finalized lane's concept detection on trace lane
// lane, rounding the score to float32 exactly as the SPE kernel reports
// it.
func (st *batchState) detectOn(o *laneOut, lane string, n int) {
	t0 := st.b.now(lane)
	o.score = float64(float32(st.ms.Decision(o.id, o.vec)))
	st.b.span(lane, t0, st.b.now(lane), trace.KindCompute, fmt.Sprintf("img%d/detect-%s", n, o.id))
}

// run executes one rep: the schedule's per-image loop as a task graph.
// Each launched extraction is a lane future; a lane with its own detector
// chains the detection onto itself, and a group detection runs the four
// in launch order on one "detect" lane once every extraction is done.
// Without overlap each lane is waited for before the next is launched.
// With two pixel buffers the orchestrator preprocesses image n+1 while
// image n's lanes run — the overlap the simulated Pipelined schedule (and
// the estimator's Eq. 3 overlap term) has.
func (st *batchState) run(sched marvel.Schedule) []marvel.ImageResult {
	ex := st.b.ex
	images := st.w.Images
	out := make([]marvel.ImageResult, 0, images)
	if sched.Buffers > 1 {
		st.preprocess(0)
	}
	for n := 0; n < images; n++ {
		buf := n % sched.Buffers
		if sched.Buffers == 1 {
			st.preprocess(n)
		}
		lanes := make([]*Future[laneOut], 0, len(sched.Launch))
		for _, id := range sched.Launch {
			f := st.extractLane(id, buf, n)
			if sched.PerLane {
				lane := id.String()
				f = Then(ex, f, func(o laneOut) laneOut {
					st.detectOn(&o, lane, n)
					return o
				})
			}
			if !sched.Overlap {
				f.Wait()
			}
			lanes = append(lanes, f)
		}
		if sched.Buffers > 1 && n+1 < images {
			st.preprocess(n + 1)
		}
		all := WhenAll(ex, lanes)
		if !sched.PerLane {
			all = Then(ex, all, func(os []laneOut) []laneOut {
				for i := range os {
					st.detectOn(&os[i], "detect", n)
				}
				return os
			})
		}
		var r marvel.ImageResult
		for _, o := range all.Wait() {
			r.Put(o.id, o.vec, o.score)
		}
		out = append(out, r)
	}
	return out
}
