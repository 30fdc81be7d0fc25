package marvel

import (
	"fmt"

	"cellport/internal/cell"
	"cellport/internal/core"
	"cellport/internal/fault"
	"cellport/internal/img"
	"cellport/internal/mainmem"
	"cellport/internal/metrics"
	"cellport/internal/parallel"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// Scenario selects the §5.5 scheduling scheme.
type Scenario int

// The three evaluated scenarios.
const (
	// SingleSPE: all kernels execute sequentially — no task parallelism
	// between SPEs (scenario 1, Fig. 4b). Kernels stay resident on their
	// own SPEs to avoid dynamic code switching, exactly as the paper
	// describes.
	SingleSPE Scenario = iota
	// MultiSPE: the four feature extractions run in parallel on four
	// SPEs; all concept detections run sequentially on a fifth
	// (scenario 2, Fig. 4c).
	MultiSPE
	// MultiSPE2: extractions run in parallel and the detection kernel is
	// replicated on four more SPEs so each extraction is immediately
	// followed by its own detection (scenario 3).
	MultiSPE2
	// Pipelined is an EXTENSION beyond the paper's three scenarios: the
	// §4.2 observation that "the execution model should increase
	// concurrency by using several SPEs and the PPE in parallel" applied
	// across images — the PPE preprocesses image i+1 (disk read, decode)
	// into a second pixel buffer while the SPEs process image i. Since
	// per-image preprocessing is about twice the parallel extraction
	// time, it dominates the ported application's critical path; this
	// schedule hides the SPE work behind it almost entirely.
	Pipelined
)

func (s Scenario) String() string {
	switch s {
	case SingleSPE:
		return "single-spe"
	case MultiSPE:
		return "multi-spe"
	case MultiSPE2:
		return "multi-spe2"
	default:
		return "pipelined"
	}
}

// Schedule is what a scenario runs per image, the one description both
// the simulated port (portedMain) and the real-execution backend drive
// their per-image loop from.
type Schedule struct {
	// Launch is the extraction launch order.
	Launch []KernelID
	// Overlap launches every extraction before collecting any; without
	// it each extraction runs to completion before the next is launched.
	Overlap bool
	// PerLane gives each extraction its own detector, handed its feature
	// as soon as the extraction finishes. Without it one detector runs
	// the four detections in launch order after the whole extraction
	// group.
	PerLane bool
	// Buffers is the pixel-buffer count. With two, preprocessing of image
	// n+1 overlaps the kernels of image n.
	Buffers int
}

// parallelLaunch orders the overlapped extractions by expected completion
// (shortest first, the correlogram last).
var parallelLaunch = []KernelID{KCH, KTX, KEH, KCC}

var schedules = [...]Schedule{
	SingleSPE: {Launch: ExtractKernels, Buffers: 1},
	MultiSPE:  {Launch: parallelLaunch, Overlap: true, Buffers: 1},
	MultiSPE2: {Launch: parallelLaunch, Overlap: true, PerLane: true, Buffers: 1},
	Pipelined: {Launch: parallelLaunch, Overlap: true, PerLane: true, Buffers: 2},
}

// Schedule returns the scenario's per-image schedule.
func (s Scenario) Schedule() (Schedule, error) {
	if s < 0 || int(s) >= len(schedules) {
		return Schedule{}, fmt.Errorf("marvel: unknown scenario %d", int(s))
	}
	return schedules[s], nil
}

// PortedConfig configures a ported-application run.
type PortedConfig struct {
	Workload Workload
	Scenario Scenario
	Variant  Variant
	// Validate compares every kernel output with the reference
	// computation (the "application functional at all times" check).
	Validate bool
	// MachineConfig overrides the default machine when non-nil.
	MachineConfig *cell.Config
	// Artifacts selects the cache used for the frames, the model set and
	// the kernel memo. Nil means the process-wide SharedArtifacts cache,
	// unless NoCache is set (ResolveArtifacts).
	Artifacts *ArtifactCache
	// NoCache forces cold-path behaviour: every artifact is recomputed
	// privately for this run. Ignored when Artifacts is non-nil.
	NoCache bool
	// Faults, when non-empty, arms deterministic fault injection and the
	// self-healing supervision loop. A nil or empty plan leaves every
	// fault hook uninstalled: the run is byte-identical to one without
	// fault support.
	Faults *fault.Plan
	// Watchdog overrides the supervision watchdog timeout (zero selects
	// DefaultWatchdog). Only consulted when Faults is armed.
	Watchdog sim.Duration
	// Exec, when non-nil, additionally runs the point's kernels for real
	// on the execution backend after the simulation finishes, attaching
	// the measured run to PortedResult.Exec. The simulated half is
	// untouched: virtual-time results are byte-identical with or without
	// a backend.
	Exec ExecBackend
}

// artifacts resolves the cache a run should use (ResolveArtifacts).
func (cfg *PortedConfig) artifacts() *ArtifactCache {
	return ResolveArtifacts(cfg.Artifacts, cfg.NoCache)
}

// PortedResult reports a ported run.
type PortedResult struct {
	Scenario Scenario
	Variant  Variant
	// Total includes the one-time overhead; PerImage excludes it.
	Total    sim.Duration
	OneTime  sim.Duration
	PerImage sim.Duration
	// KernelTime is the average per-image PPE-observed round-trip time of
	// each kernel (detection summed over the four features). Meaningful
	// for SingleSPE, where invocations do not overlap.
	KernelTime map[KernelID]sim.Duration
	// Images holds the outputs read back from the wrappers.
	Images []ImageResult
	// ValidationErrors counts mismatches against the reference outputs.
	ValidationErrors int
	// SPEBusy reports each SPE's accumulated compute time.
	SPEBusy []sim.Duration
	// EventCount is the simulator's total dispatched-event count for the
	// run — a replay fingerprint: identical inputs must reproduce it
	// exactly, whether the run executed sequentially or inside the
	// parallel experiment harness.
	EventCount uint64
	// Faults is the structured fault report (nil when no plan was armed):
	// what was injected and how the supervision loop recovered.
	Faults *fault.Report
	// Trace holds the run's recorded spans and instants when the machine
	// was configured with a *trace.Recorder. Excluded from JSON so -json
	// artifacts are byte-identical with instrumentation on or off.
	Trace *trace.Recorder `json:"-"`
	// Metrics is the end-of-run snapshot when the machine was configured
	// with a registry. Excluded from JSON for the same reason.
	Metrics *metrics.Snapshot `json:"-"`
	// Exec is the real-execution run when the config carried a backend
	// (wall-clock domain). Excluded from JSON so -json artifacts are
	// byte-identical whether or not a backend raced the simulation.
	Exec *ExecRun `json:"-"`
}

// RunPorted executes the ported MARVEL application on a simulated Cell.
// The run's pure host arithmetic (hostJobs) runs on helper goroutines
// beside the event loop, joined before the simulated result is final.
// With an execution backend configured, the same point then runs for
// real and the measured run rides along on the result.
func RunPorted(cfg PortedConfig) (*PortedResult, error) {
	w := cfg.Workload
	if err := w.Check(); err != nil {
		return nil, err
	}
	sched, err := cfg.Scenario.Schedule()
	if err != nil {
		return nil, err
	}
	mcfg := cell.DefaultConfig()
	if cfg.MachineConfig != nil {
		mcfg = *cfg.MachineConfig
	}
	arts := cfg.artifacts()
	frames := arts.framesOf(w)
	ms, err := arts.ModelSet(w.Seed)
	if err != nil {
		return nil, err
	}
	helpers := startHelpers(cfg.hostJobs(arts, sched, frames))
	defer helpers.wait()
	machine := cell.New(mcfg)
	defer machine.Release()

	res := &PortedResult{
		Scenario:   cfg.Scenario,
		Variant:    cfg.Variant,
		KernelTime: make(map[KernelID]sim.Duration),
	}
	var inj *fault.Injector
	if !cfg.Faults.Empty() {
		inj = fault.NewInjector(machine.Engine, cfg.Faults, mcfg.NumSPEs)
		machine.InjectFaults(inj)
	}
	var runErr error
	var ppeBusy sim.Duration
	elapsed, err := machine.RunMain("marvel", func(ctx *cell.Context) {
		runErr = portedMain(ctx, cfg, sched, inj, frames, ms, res)
		ppeBusy = ctx.BusyTime()
	})
	// A failed helper is the root cause of any kernel that joined it.
	if herr := helpers.wait(); herr != nil {
		return nil, fmt.Errorf("marvel: host helper: %w", herr)
	}
	if err != nil {
		return nil, fmt.Errorf("marvel: simulation: %w", err)
	}
	if runErr != nil {
		return nil, runErr
	}
	if cfg.Validate {
		ref := runReference(mcfg.PPEModel, w, ms, func(i int) ImageResult { return frames[i].features() })
		for n := range res.Images {
			res.ValidationErrors += CompareImageResults(&ref.Images[n], &res.Images[n])
		}
	}
	res.Total = elapsed
	if n := len(frames); n > 0 {
		res.PerImage = (res.Total - res.OneTime) / sim.Duration(n)
		for id := range res.KernelTime {
			res.KernelTime[id] /= sim.Duration(n)
		}
	}
	for _, s := range machine.SPEs {
		res.SPEBusy = append(res.SPEBusy, s.BusyTime())
	}
	res.EventCount = machine.Engine.EventCount
	if inj != nil {
		res.Faults = inj.Report()
	}
	// Post-run observability harvest: pure bookkeeping over completed
	// counters, after the engine has stopped — it cannot affect the replay
	// fingerprint captured above.
	if reg := mcfg.Metrics; reg != nil {
		machine.HarvestMetrics(reg, elapsed)
		reg.Counter("ppe", "busy_fs", int64(ppeBusy))
		if res.Faults != nil {
			rep := res.Faults
			reg.Counter("supervisor", "faults_planned", int64(rep.Planned))
			reg.Counter("supervisor", "faults_injected", int64(len(rep.Injected)))
			reg.Counter("supervisor", "retries", int64(rep.Retries))
			reg.Counter("supervisor", "redispatches", int64(rep.Redispatches))
			reg.Counter("supervisor", "fallbacks", int64(rep.Fallbacks))
			reg.Counter("supervisor", "watchdog_timeouts", int64(rep.WatchdogTimeouts))
			reg.Counter("supervisor", "spes_lost", int64(len(rep.SPEsLost)))
			reg.Counter("supervisor", "backoff_fs", int64(rep.BackoffTime))
			reg.Counter("supervisor", "degraded_fs", int64(rep.DegradedTime))
		}
		res.Metrics = reg.Snapshot()
	}
	res.Trace = mcfg.Tracer
	if cfg.Exec != nil {
		run, err := cfg.Exec.Execute(ExecPoint{Workload: cfg.Workload, Scenario: cfg.Scenario, Variant: cfg.Variant})
		if err != nil {
			return nil, fmt.Errorf("marvel: exec backend: %w", err)
		}
		res.Exec = run
	}
	return res, nil
}

// hostJobs lists the run's pure host arithmetic for the helpers to do
// while the event loop runs: the kernel memo entries the kernels will
// look up, then the validation oracle's features. An armed fault plan
// can stop a kernel before its lookup, so it runs without the prefetch,
// keeping memo misses equal to the distinct inputs the kernels saw. A
// warm cache lists nothing.
func (cfg *PortedConfig) hostJobs(arts *ArtifactCache, sched Schedule, frames []*frame) []func() error {
	var jobs []func() error
	if cfg.Faults.Empty() {
		jobs = arts.prefetchJobs(cfg.Workload, sched, cfg.Variant, frames)
	}
	if cfg.Validate {
		for _, f := range frames {
			for _, id := range ExtractKernels {
				if !f.host[id].ready.Load() {
					jobs = append(jobs, func() error { f.feature(id); return nil })
				}
			}
		}
	}
	return jobs
}

// helpers is a ported run's helper pool: one parallel.RunIndexed over its
// host jobs, GOMAXPROCS wide, running beside the event loop.
type helpers struct {
	done chan struct{}
	err  error
}

// startHelpers starts the pool, or nothing for no jobs (a warm cache).
func startHelpers(jobs []func() error) *helpers {
	if len(jobs) == 0 {
		return nil
	}
	h := &helpers{done: make(chan struct{})}
	go func() {
		defer close(h.done)
		_, h.err = parallel.RunIndexed(0, len(jobs), func(i int) (struct{}, error) {
			return struct{}{}, jobs[i]()
		})
	}()
	return h
}

// wait joins the pool and returns its lowest-index job error, a panic
// included. Every exit path of RunPorted waits, so no helper outlives the
// run or shares the CPU with a real-execution backend.
func (h *helpers) wait() error {
	if h == nil {
		return nil
	}
	<-h.done
	return h.err
}

// portedMain is the PPE main application after porting (Listing 4 shape):
// one-time setup, then one loop over the images that runs sched.
func portedMain(ctx *cell.Context, cfg PortedConfig, sched Schedule, inj *fault.Injector, frames []*frame, ms *ModelSet, res *PortedResult) error {
	mem := ctx.Memory()
	w := cfg.Workload
	pixels := float64(w.W * w.H)

	// --- one-time: load models from disk, place them in main memory, ---
	// --- load the SPE kernels and leave them idling (§3.3).          ---
	start := ctx.Now()
	ctx.DiskRead(ModelFileBytes, "load-models")
	ctx.ComputeScalar(ModelParseOps, "parse-models")
	var models [numExtract]*PlacedModel // by score slot, placed in that order
	for slot := range models {
		pm, err := PlaceModel(mem, ms, slot)
		if err != nil {
			return err
		}
		ctx.MemStream(float64(pm.Bytes()), "place-model")
		models[slot] = pm
	}

	// PPE fallback closures for graceful degradation: each reproduces its
	// SPE kernel's outputs bit-for-bit by running the same feature/SVM
	// code against the wrapper in main memory, charging reference-style
	// PPE time.
	extractFallback := func(id KernelID) fallbackFunc {
		return func(wrapper mainmem.Addr) uint32 {
			hdr := core.GetUint32s(mem.Bytes(wrapper, exHdrBytes))
			iw, ih, stride := int(hdr[0]), int(hdr[1]), int(hdr[2])
			pixEA := mainmem.Addr(hdr[3])
			y0, y1 := int(hdr[4]), int(hdr[5])
			if iw <= 0 || ih <= 0 || stride < 3*iw || y0 != 0 || y1 != ih {
				return resErr
			}
			im := img.Wrap(mem.Bytes(pixEA, uint32(stride*ih)), iw, ih, stride)
			k := kernelOf(id)
			vec := k.reference(im)
			ctx.ComputeBranches(k.NomBranchesPerPixel*pixels, -1, id.String()+"-ppe")
			ctx.ComputeScalar(k.NomOpsPerPixel*pixels*k.HostOpsMult, id.String()+"-ppe")
			core.PutFloat32s(mem.Bytes(wrapper+mainmem.Addr(extractOutOff()), uint32(len(vec)*4)), vec)
			return resOK
		}
	}
	detectFallback := func(wrapper mainmem.Addr) uint32 {
		hdr := core.GetUint32s(mem.Bytes(wrapper, hdrBytes))
		dim, numSV := int(hdr[0]), int(hdr[1])
		modelEA := mainmem.Addr(hdr[2])
		if dim <= 0 || numSV <= 0 {
			return resErr
		}
		// Locate the placed model by effective address.
		var model *PlacedModel
		for _, pm := range models {
			if pm.EA == modelEA {
				model = pm
				break
			}
		}
		if model == nil || model.Dim != dim || model.NumSV != numSV {
			return resErr
		}
		feature := core.GetFloat32s(mem.Bytes(wrapper+mainmem.Addr(detectFeatureOff()), uint32(dim)*4))
		sum := model.refModel.Decision(feature)
		ctx.ComputeScalar(detectNomOps(numSV, dim)*kernels[KCD].HostOpsMult, "detect-ppe")
		sb := mem.Bytes(wrapper+mainmem.Addr(detectScoreOff(dim)), scoreBytes)
		core.PutFloat32s(sb[:4], []float32{float32(sum)})
		class := uint32(0)
		if sum > 0 {
			class = 1
		}
		core.PutUint32s(sb[4:8], []uint32{class})
		return resOK
	}

	// One lane per extraction kernel, indexed by KernelID: its kernel, its
	// detector, one extraction wrapper per pixel buffer and its detection
	// wrapper.
	type lane struct {
		extract, detect *kern
		ex              []*core.Wrapper
		dt              *core.Wrapper
	}
	var lanes [numExtract]lane

	// Kernel placement: extraction kernels on SPE0-3; detection on SPE4,
	// or replicated on SPE4-7 when every lane has its own detector. Under
	// supervision, SPEs beyond the planned set form the redispatch pool.
	sup := newSupervisor(ctx, inj, cfg.Watchdog)
	planned := []int{0, 1, 2, 3, 4}
	if sched.PerLane {
		planned = append(planned, 5, 6, 7)
	}
	sup.reserve(planned...)
	for i, id := range ExtractKernels {
		k, err := sup.open(i, ExtractKernelSpec(id, cfg.Variant, cfg.artifacts()), extractFallback(id))
		if err != nil {
			return err
		}
		lanes[id].extract = k
	}
	var detectors []*kern
	for i, id := range ExtractKernels {
		if sched.PerLane || i == 0 {
			k, err := sup.open(4+i, DetectKernelSpec(cfg.Variant), detectFallback)
			if err != nil {
				return err
			}
			detectors = append(detectors, k)
		}
		lanes[id].detect = detectors[len(detectors)-1]
	}
	res.OneTime = ctx.Now().Sub(start)

	// Persistent wrappers and pixel blocks, reused per image: one pixel
	// block, and one extraction wrapper per kernel pointing at it, per
	// pixel buffer.
	stride := img.StrideFor(w.W)
	pixBytes := uint32(stride * w.H)
	pixEAs := make([]mainmem.Addr, sched.Buffers)
	for b := range pixEAs {
		ea, err := mem.Alloc(pixBytes, mainmem.AlignCacheLine)
		if err != nil {
			return err
		}
		pixEAs[b] = ea
		for _, id := range ExtractKernels {
			ew, err := core.NewWrapper(mem, extractFields(id)...)
			if err != nil {
				return err
			}
			fillExtractHeader(ew, w.W, w.H, stride, ea, 0, w.H)
			lanes[id].ex = append(lanes[id].ex, ew)
		}
	}
	for _, id := range ExtractKernels {
		pm := models[kernelOf(id).score]
		dw, err := core.NewWrapper(mem, detectFields(pm.Dim)...)
		if err != nil {
			return err
		}
		fillDetectHeader(dw, pm.Dim, pm.NumSV, pm.EA, 0)
		lanes[id].dt = dw
	}

	// preprocess reads and decodes image n into pixel buffer n%Buffers:
	// the PPE-side preprocessing of §5.1.
	preprocess := func(n int) {
		ctx.DiskRead(CompressedImageBytes, "read-image")
		ctx.ComputeScalar(DecodeOpsPerPixel*pixels, "decode-image")
		// The decode's store pass writes straight into the aligned pixel
		// block; no extra streaming charge beyond the decode ops (the
		// original code also wrote its framebuffer during decode).
		dst := mem.Bytes(pixEAs[n%sched.Buffers], pixBytes)
		for y := 0; y < w.H; y++ {
			copy(dst[y*stride:], frames[n].im.Row(y))
		}
	}
	// feed FILLs a lane's detection wrapper from its extraction output in
	// pixel buffer b (the Listing-4 "put data back / wrap again" step).
	feed := func(id KernelID, b int) {
		vec := lanes[id].ex[b].Float32s("out", kernelOf(id).dim)
		lanes[id].dt.SetFloat32s("feature", vec)
		ctx.MemStream(float64(len(vec)*4*2), "copy-feature")
	}
	// invoke is the Listing-3 round trip, its PPE-observed time added to
	// KernelTime under kid.
	invoke := func(kid KernelID, k *kern, wrapper *core.Wrapper) error {
		t0 := ctx.Now()
		code, err := k.SendAndWait(OpRun, wrapper.Addr())
		if err := kernelResult(k, code, err); err != nil {
			return err
		}
		res.KernelTime[kid] += ctx.Now().Sub(t0)
		return nil
	}

	// --- per image: the one schedule loop ---------------------------
	if sched.Buffers > 1 {
		preprocess(0)
	}
	for n := range frames {
		b := n % sched.Buffers
		if sched.Buffers == 1 {
			preprocess(n)
		}
		for _, id := range sched.Launch {
			l := &lanes[id]
			var err error
			if sched.Overlap {
				err = l.extract.Send(OpRun, l.ex[b].Addr())
			} else {
				err = invoke(id, l.extract, l.ex[b])
			}
			if err != nil {
				return err
			}
		}
		if sched.Buffers > 1 && n+1 < len(frames) {
			preprocess(n + 1)
		}
		for _, id := range sched.Launch {
			l := &lanes[id]
			if sched.Overlap {
				code, err := l.extract.Wait()
				if err := kernelResult(l.extract, code, err); err != nil {
					return err
				}
			}
			if sched.PerLane {
				feed(id, b)
				if err := l.detect.Send(OpRun, l.dt.Addr()); err != nil {
					return err
				}
			}
		}
		for _, id := range sched.Launch {
			l := &lanes[id]
			if sched.PerLane {
				code, err := l.detect.Wait()
				if err := kernelResult(l.detect, code, err); err != nil {
					return err
				}
				continue
			}
			feed(id, b)
			if err := invoke(KCD, l.detect, l.dt); err != nil {
				return err
			}
		}

		var r ImageResult
		for _, id := range ExtractKernels {
			l := &lanes[id]
			r.Put(id, l.ex[b].Float32s("out", kernelOf(id).dim), float64(l.dt.Float32s("score", 1)[0]))
		}
		res.Images = append(res.Images, r)
	}

	// Tear down: close interfaces (sends OpExit), free wrappers.
	for _, id := range ExtractKernels {
		if err := lanes[id].extract.Close(); err != nil {
			return err
		}
	}
	for _, k := range detectors {
		if err := k.Close(); err != nil {
			return err
		}
	}
	for b, ea := range pixEAs {
		for _, id := range ExtractKernels {
			if err := lanes[id].ex[b].Free(); err != nil {
				return err
			}
		}
		if err := mem.Free(ea); err != nil {
			return err
		}
	}
	for _, id := range ExtractKernels {
		if err := lanes[id].dt.Free(); err != nil {
			return err
		}
		if err := models[kernelOf(id).score].Free(mem); err != nil {
			return err
		}
	}
	return mem.CheckLeaks()
}

// kernelResult turns a kernel completion into an error: a transport error
// as is, a non-OK result code naming the kernel.
func kernelResult(k *kern, code uint32, err error) error {
	if err != nil {
		return err
	}
	if code != resOK {
		return fmt.Errorf("marvel: %s returned %#x", k.Name(), code)
	}
	return nil
}

// CompareImageResults counts output mismatches between two per-image
// results with the port's validation semantics. Feature vectors must
// match bit-for-bit; scores must match after float32 rounding (the
// kernel reports a float32), and a NaN on either side never matches.
// The real-execution harness validates executed outputs with it too.
func CompareImageResults(ref, got *ImageResult) int {
	bad := 0
	cmpVec := func(a, b []float32) {
		if len(a) != len(b) {
			bad++
			return
		}
		for i := range a {
			if a[i] != b[i] {
				bad++
				return
			}
		}
	}
	for _, id := range ExtractKernels {
		f := kernelOf(id).feature
		cmpVec(*f(ref), *f(got))
	}
	for i := range ref.Scores {
		if float64(float32(ref.Scores[i])) != got.Scores[i] {
			bad++
		}
	}
	return bad
}
