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
//   - job distribution (MultiSPE2) processes the batch one image at a
//     time, preprocessing serially between images, with the four
//     extraction→finalize→detection lanes racing in parallel;
//   - data distribution (Pipelined) double-buffers the pixel block and
//     preprocesses image i+1 while image i's lanes run — the same
//     overlap the estimator credits the scheme with;
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

// extractionLanes lists the four extraction kernels in the launch order
// the ported schedules use (shortest first, the correlogram last).
var extractionLanes = []marvel.KernelID{marvel.KCH, marvel.KTX, marvel.KEH, marvel.KCC}

// decision evaluates a feature vector against its kernel's concept
// model.
func decision(ms *marvel.ModelSet, id marvel.KernelID, vec []float32) float64 {
	switch id {
	case marvel.KCH:
		return ms.CH.Decision(vec)
	case marvel.KCC:
		return ms.CC.Decision(vec)
	case marvel.KEH:
		return ms.EH.Decision(vec)
	default:
		return ms.TX.Decision(vec)
	}
}

// Execute implements marvel.ExecBackend: it runs the point's batch
// graph Reps times and reports the fastest wall time together with the
// outputs of the final rep.
func (b *Backend) Execute(p marvel.ExecPoint) (*marvel.ExecRun, error) {
	w := p.Workload
	if w.Images <= 0 || w.W <= 0 || w.H <= 0 {
		return nil, fmt.Errorf("exec: bad workload %+v", w)
	}
	ms, err := b.arts.ModelSet(w.Seed)
	if err != nil {
		return nil, err
	}
	plans := map[marvel.KernelID][]img.Slice{}
	for _, id := range extractionLanes {
		if plans[id], err = marvel.ExecPlan(id, p.Variant, w.W, w.H); err != nil {
			return nil, err
		}
	}

	run := &marvel.ExecRun{Workers: b.ex.Workers(), Reps: b.reps}
	var reg *metrics.Registry
	for rep := 0; rep < b.reps; rep++ {
		last := rep == b.reps-1
		b.tracing, b.spans = b.instrument && last, nil
		s0 := b.ex.Stats()
		t0 := b.now(batchTrack)
		images, err := b.runBatch(p, ms, plans)
		wall := (b.now(batchTrack) - t0).Nanoseconds()
		if err != nil {
			return nil, err
		}
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

// batchState carries one rep's buffers through the schedule drivers.
type batchState struct {
	b      *Backend
	p      marvel.ExecPoint
	ms     *marvel.ModelSet
	plans  map[marvel.KernelID][]img.Slice
	stride int
	bufs   [][]byte
}

// runBatch executes one rep of the point's task graph.
func (b *Backend) runBatch(p marvel.ExecPoint, ms *marvel.ModelSet, plans map[marvel.KernelID][]img.Slice) ([]marvel.ImageResult, error) {
	w := p.Workload
	st := &batchState{b: b, p: p, ms: ms, plans: plans, stride: img.StrideFor(w.W)}
	numBufs := 1
	if p.Scenario == marvel.Pipelined {
		numBufs = 2
	}
	for i := 0; i < numBufs; i++ {
		st.bufs = append(st.bufs, make([]byte, st.stride*w.H))
	}
	switch p.Scenario {
	case marvel.Pipelined:
		return st.runPipelined()
	default:
		return st.runSequential()
	}
}

// preprocess regenerates image n (the decode analog of the PPE's
// per-image preprocessing — real per-pixel work, not a memcpy of a
// cached frame) and stores it strided into pixel buffer buf.
func (st *batchState) preprocess(n, buf int) {
	w := st.p.Workload
	t0 := st.b.now("pre")
	dec := img.Synthesize(img.CorpusSeed(w.Seed, n), w.W, w.H)
	dst := st.bufs[buf]
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
	band := img.Wrap(st.bufs[buf][s.TransferY0()*st.stride:][:rows*st.stride], st.p.Workload.W, rows, st.stride)
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

// detect chains the concept detection onto a finalized lane, rounding
// the score to float32 exactly as the SPE kernel reports it.
func (st *batchState) detect(f *Future[laneOut], lane string, n int) *Future[laneOut] {
	return Then(st.b.ex, f, func(o laneOut) laneOut {
		t0 := st.b.now(lane)
		o.score = float64(float32(decision(st.ms, o.id, o.vec)))
		st.b.span(lane, t0, st.b.now(lane), trace.KindCompute, fmt.Sprintf("img%d/detect-%s", n, o.id))
		return o
	})
}

// assemble folds lane outputs into the per-image result.
func assemble(r *marvel.ImageResult, outs []laneOut) {
	for _, o := range outs {
		switch o.id {
		case marvel.KCH:
			r.CH = o.vec
		case marvel.KCC:
			r.CC = o.vec
		case marvel.KEH:
			r.EH = o.vec
		default:
			r.TX = o.vec
		}
		r.Scores[marvel.ScoreIndex(o.id)] = o.score
	}
}

// runSequential drives the one-image-at-a-time schedules: SingleSPE
// (one lane at a time), MultiSPE (lanes parallel, detections serialized
// on one "detect" lane), and MultiSPE2 / job distribution (lanes
// parallel, each with its own detection).
func (st *batchState) runSequential() ([]marvel.ImageResult, error) {
	w := st.p.Workload
	out := make([]marvel.ImageResult, 0, w.Images)
	for n := 0; n < w.Images; n++ {
		st.preprocess(n, 0)
		var outs []laneOut
		switch st.p.Scenario {
		case marvel.SingleSPE:
			// No task parallelism: each lane runs to completion (including
			// its detection) before the next lane starts.
			for _, id := range extractionLanes {
				outs = append(outs, st.detect(st.extractLane(id, 0, n), id.String(), n).Wait())
			}
		case marvel.MultiSPE:
			// Extractions race; the detections share one serial lane.
			var lanes []*Future[laneOut]
			for _, id := range extractionLanes {
				lanes = append(lanes, st.extractLane(id, 0, n))
			}
			outs = Then(st.b.ex, WhenAll(st.b.ex, lanes), func(os []laneOut) []laneOut {
				for i := range os {
					t0 := st.b.now("detect")
					os[i].score = float64(float32(decision(st.ms, os[i].id, os[i].vec)))
					st.b.span("detect", t0, st.b.now("detect"), trace.KindCompute, fmt.Sprintf("img%d/detect-%s", n, os[i].id))
				}
				return os
			}).Wait()
		default: // MultiSPE2: replicated detectors, one per lane
			var lanes []*Future[laneOut]
			for _, id := range extractionLanes {
				lanes = append(lanes, st.detect(st.extractLane(id, 0, n), id.String(), n))
			}
			outs = WhenAll(st.b.ex, lanes).Wait()
		}
		var r marvel.ImageResult
		assemble(&r, outs)
		out = append(out, r)
	}
	return out, nil
}

// runPipelined drives data distribution: image n's four lanes run from
// pixel buffer n%2 while the orchestrator preprocesses image n+1 into
// the other buffer — preprocessing overlaps SPE-side work exactly as
// the simulated Pipelined schedule (and the estimator's Eq. 3 overlap
// term) has it.
func (st *batchState) runPipelined() ([]marvel.ImageResult, error) {
	w := st.p.Workload
	out := make([]marvel.ImageResult, 0, w.Images)
	st.preprocess(0, 0)
	for n := 0; n < w.Images; n++ {
		var lanes []*Future[laneOut]
		for _, id := range extractionLanes {
			lanes = append(lanes, st.detect(st.extractLane(id, n%2, n), id.String(), n))
		}
		if n+1 < w.Images {
			st.preprocess(n+1, (n+1)%2)
		}
		var r marvel.ImageResult
		assemble(&r, WhenAll(st.b.ex, lanes).Wait())
		out = append(out, r)
	}
	return out, nil
}
