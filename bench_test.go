package cellport_test

// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation, plus ablations for the §4.1 optimizations. Reported
// "ns/op" is host wall time; the quantity that reproduces the paper is
// the virtual time, exported through the vtime_us/op and speedup metrics.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable1 -benchtime=1x

import (
	"sync"
	"testing"

	"cellport/internal/cell"
	"cellport/internal/cost"
	"cellport/internal/experiments"
	"cellport/internal/marvel"
	"cellport/internal/parallel"
	"cellport/internal/serve"
)

// benchCfg shares the experiment package's workload sizing (Quick frames
// keep benches fast while preserving full-width DMA rows).
var benchCfg = func() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Quick, cfg.Seed = true, 13
	return cfg
}()

func benchWorkload(n int) marvel.Workload { return benchCfg.Workload(n) }

func benchMachine() *cell.Config { return experiments.MachineConfig() }

// --- Table 1: per-kernel PPE vs optimized SPE ---------------------------

// BenchmarkTable1Kernels runs the SingleSPE ported application once per
// iteration and reports each kernel's virtual round-trip time and its
// speed-up over the PPE reference as custom metrics.
func BenchmarkTable1Kernels(b *testing.B) {
	w := benchWorkload(1)
	ms, err := marvel.NewModelSet(w.Seed)
	if err != nil {
		b.Fatal(err)
	}
	ref := marvel.RunReference(cost.NewPPE(), w, ms)
	var ported *marvel.PortedResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ported, err = marvel.RunPorted(marvel.PortedConfig{
			Workload:      w,
			Scenario:      marvel.SingleSPE,
			Variant:       marvel.Optimized,
			MachineConfig: benchMachine(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, id := range marvel.KernelIDs {
		b.ReportMetric(ported.KernelTime[id].Microseconds(), id.String()+"_vtime_us")
		b.ReportMetric(ref.KernelTime[id].Seconds()/ported.KernelTime[id].Seconds(),
			id.String()+"_speedup")
	}
}

// Per-kernel benchmarks (PPE reference side), one per Table 1 row.
func benchKernelPPE(b *testing.B, id marvel.KernelID) {
	w := benchWorkload(1)
	ms, err := marvel.NewModelSet(w.Seed)
	if err != nil {
		b.Fatal(err)
	}
	var ref *marvel.ReferenceResult
	for i := 0; i < b.N; i++ {
		ref = marvel.RunReference(cost.NewPPE(), w, ms)
	}
	b.ReportMetric(ref.KernelTime[id].Microseconds(), "vtime_us")
}

func BenchmarkTable1PPE_CHExtract(b *testing.B)  { benchKernelPPE(b, marvel.KCH) }
func BenchmarkTable1PPE_CCExtract(b *testing.B)  { benchKernelPPE(b, marvel.KCC) }
func BenchmarkTable1PPE_TXExtract(b *testing.B)  { benchKernelPPE(b, marvel.KTX) }
func BenchmarkTable1PPE_EHExtract(b *testing.B)  { benchKernelPPE(b, marvel.KEH) }
func BenchmarkTable1PPE_ConceptDet(b *testing.B) { benchKernelPPE(b, marvel.KCD) }

// --- §5.3: naive kernel variants ----------------------------------------

func BenchmarkNaiveKernels(b *testing.B) {
	w := benchWorkload(1)
	ms, err := marvel.NewModelSet(w.Seed)
	if err != nil {
		b.Fatal(err)
	}
	ref := marvel.RunReference(cost.NewPPE(), w, ms)
	var ported *marvel.PortedResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ported, err = marvel.RunPorted(marvel.PortedConfig{
			Workload:      w,
			Scenario:      marvel.SingleSPE,
			Variant:       marvel.Naive,
			MachineConfig: benchMachine(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, id := range marvel.KernelIDs {
		b.ReportMetric(ref.KernelTime[id].Seconds()/ported.KernelTime[id].Seconds(),
			id.String()+"_speedup")
	}
}

// --- Figure 6: kernel times per target ------------------------------------

func benchHostKernels(b *testing.B, model *cost.Model) {
	w := benchWorkload(1)
	ms, err := marvel.NewModelSet(w.Seed)
	if err != nil {
		b.Fatal(err)
	}
	var ref *marvel.ReferenceResult
	for i := 0; i < b.N; i++ {
		ref = marvel.RunReference(model, w, ms)
	}
	for _, id := range marvel.KernelIDs {
		b.ReportMetric(ref.KernelTime[id].Microseconds(), id.String()+"_vtime_us")
	}
}

func BenchmarkFig6Laptop(b *testing.B)  { benchHostKernels(b, cost.NewLaptop()) }
func BenchmarkFig6Desktop(b *testing.B) { benchHostKernels(b, cost.NewDesktop()) }
func BenchmarkFig6PPE(b *testing.B)     { benchHostKernels(b, cost.NewPPE()) }
func BenchmarkFig6SPE(b *testing.B)     { BenchmarkTable1Kernels(b) }

// --- Figure 7: application scenarios ---------------------------------------

// benchScenario measures wall throughput with b.RunParallel: every
// iteration is an independent simulation with a private engine, and the
// virtual-time metrics are deterministic, so they are computed once
// upfront and only the run itself is timed across goroutines.
func benchScenario(b *testing.B, scen marvel.Scenario, images int) {
	w := benchWorkload(images)
	ms, err := marvel.NewModelSet(w.Seed)
	if err != nil {
		b.Fatal(err)
	}
	ref := marvel.RunReference(cost.NewDesktop(), w, ms)
	pc := marvel.PortedConfig{
		Workload:      w,
		Scenario:      scen,
		Variant:       marvel.Optimized,
		MachineConfig: benchMachine(),
	}
	ported, err := marvel.RunPorted(pc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := marvel.RunPorted(pc); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(ported.PerImage.Microseconds(), "vtime_us_per_image")
	b.ReportMetric(ref.PerImage.Seconds()/ported.PerImage.Seconds(), "speedup_vs_desktop")
}

// benchFig7Grid runs the whole Figure 7 experiment (3 hosts + 3 scenarios
// × set sizes) through the experiment harness. Comparing Seq vs Parallel
// on a multicore host shows the wall-time win of the worker pool;
// comparing either against NoCache shows the artifact cache's win (the
// three host reference runs amortize). Virtual-time results are identical
// across all of them.
func benchFig7Grid(b *testing.B, cfg experiments.Config) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func withParallel(cfg experiments.Config, workers int) experiments.Config {
	cfg.Parallel = workers
	return cfg
}

func withNoCache(cfg experiments.Config) experiments.Config {
	cfg.NoCache = true
	return cfg
}

func BenchmarkFig7GridSeq(b *testing.B)      { benchFig7Grid(b, withParallel(benchCfg, 1)) }
func BenchmarkFig7GridParallel(b *testing.B) { benchFig7Grid(b, withParallel(benchCfg, 0)) }
func BenchmarkFig7GridNoCache(b *testing.B) {
	benchFig7Grid(b, withNoCache(withParallel(benchCfg, 1)))
}

// --- multi-point sweep: artifact cache on vs off ---------------------------

// benchSweepGrid is the tentpole's acceptance benchmark: a Fig7-style
// grid of scenarios × kernel variants × set sizes with validation on, so
// every point checks its outputs against the sequential reference — the
// "application functional at all times" workflow of an iterative porting
// sweep. Cached, each frame (pixels and host features), each model set and
// each kernel output is computed once and shared across the
// parallel.RunIndexed workers and across sweeps (the process-lifetime
// behavior paperbench gets by default); each reference is folded over
// them per point. NoCache gives every point its own cold cache, so each
// recomputes its frames and every kernel. One warm-up
// sweep runs before the timer in both variants, so Cached measures the
// steady state. Outputs are byte-identical either way
// (TestPortedCacheOnOffIdentical).
func benchSweepGrid(b *testing.B, nocache bool) {
	type point struct {
		scen marvel.Scenario
		v    marvel.Variant
		n    int
	}
	var grid []point
	for _, scen := range []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE, marvel.MultiSPE2} {
		for _, v := range []marvel.Variant{marvel.Naive, marvel.Optimized} {
			for _, n := range []int{1, 2, 4} {
				grid = append(grid, point{scen, v, n})
			}
		}
	}
	arts := marvel.NewArtifactCache()
	sweep := func() error {
		_, err := parallel.RunIndexed(0, len(grid), func(j int) (*marvel.PortedResult, error) {
			g := grid[j]
			pc := marvel.PortedConfig{
				Workload:      benchWorkload(g.n),
				Scenario:      g.scen,
				Variant:       g.v,
				Validate:      true,
				MachineConfig: benchMachine(),
				Artifacts:     arts,
			}
			if nocache {
				pc.Artifacts = marvel.NewColdArtifactCache()
			}
			return marvel.RunPorted(pc)
		})
		return err
	}
	if err := sweep(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweep(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepGridCached(b *testing.B)  { benchSweepGrid(b, false) }
func BenchmarkSweepGridNoCache(b *testing.B) { benchSweepGrid(b, true) }

// benchDistinctFrames prices the kernel memo on traffic with no reuse:
// every iteration simulates one full-size frame no earlier iteration has
// seen, so each kernel's entry is computed once, by a prefetch helper,
// and the event loop proves its bands against the frame and finds it
// there. The NoCache variant runs on a cold cache, computes inline and is
// the reference.
// Each iteration gets a fresh cache so the cache does not grow with b.N;
// hit_share reports the memo's hits over lookups (0.5 by construction:
// every event-loop lookup finds its prefetched entry).
func benchDistinctFrames(b *testing.B, nocache bool) {
	var hits, misses uint64
	for i := 0; i < b.N; i++ {
		arts := marvel.NewArtifactCache()
		if nocache {
			arts = marvel.NewColdArtifactCache()
		}
		pc := marvel.PortedConfig{
			Workload:      marvel.Workload{Images: 1, W: 352, H: 240, Seed: uint64(i) + 1},
			Scenario:      marvel.SingleSPE,
			Variant:       marvel.Optimized,
			MachineConfig: benchMachine(),
			Artifacts:     arts,
		}
		if _, err := marvel.RunPorted(pc); err != nil {
			b.Fatal(err)
		}
		h, m := arts.KernelStats()
		hits, misses = hits+h, misses+m
	}
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit_share")
	}
}

func BenchmarkDistinctFramesMemo(b *testing.B)    { benchDistinctFrames(b, false) }
func BenchmarkDistinctFramesNoCache(b *testing.B) { benchDistinctFrames(b, true) }

func BenchmarkFig7SingleSPE1(b *testing.B)  { benchScenario(b, marvel.SingleSPE, 1) }
func BenchmarkFig7SingleSPE4(b *testing.B)  { benchScenario(b, marvel.SingleSPE, 4) }
func BenchmarkFig7MultiSPE1(b *testing.B)   { benchScenario(b, marvel.MultiSPE, 1) }
func BenchmarkFig7MultiSPE4(b *testing.B)   { benchScenario(b, marvel.MultiSPE, 4) }
func BenchmarkFig7MultiSPE2_1(b *testing.B) { benchScenario(b, marvel.MultiSPE2, 1) }
func BenchmarkFig7MultiSPE2_4(b *testing.B) { benchScenario(b, marvel.MultiSPE2, 4) }

// --- §4.2: estimator -------------------------------------------------------

func BenchmarkEqnsEstimator(b *testing.B) {
	cfg := benchCfg
	var res *experiments.EqnsResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Eqns(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Scenarios {
		b.ReportMetric(s.ErrorFrac*100, "estimate_error_pct")
	}
}

// --- ablations of the §4.1 optimizations -----------------------------------

// BenchmarkAblationBuffering isolates DMA multibuffering by comparing the
// naive and optimized correlogram kernels (the optimized kernel also
// SIMDizes, so the compute-side calibration dominates; the DMA overlap
// shows in the vtime delta of the CH kernel, whose naive variant is
// already SIMDized).
func BenchmarkAblationBuffering(b *testing.B) {
	w := benchWorkload(1)
	run := func(v marvel.Variant) *marvel.PortedResult {
		res, err := marvel.RunPorted(marvel.PortedConfig{
			Workload:      w,
			Scenario:      marvel.SingleSPE,
			Variant:       v,
			MachineConfig: benchMachine(),
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var naive, opt *marvel.PortedResult
	for i := 0; i < b.N; i++ {
		naive, opt = run(marvel.Naive), run(marvel.Optimized)
	}
	b.ReportMetric(naive.KernelTime[marvel.KCH].Microseconds(), "CH_naive_vtime_us")
	b.ReportMetric(opt.KernelTime[marvel.KCH].Microseconds(), "CH_opt_vtime_us")
}

// BenchmarkAblationPollVsInterrupt compares the two completion paths of
// the §3.5 protocol on an empty kernel (pure signalling cost).
func BenchmarkAblationPollVsInterrupt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = i
	}
	// The comparison itself is in internal/core tests; here we simply run
	// both modes through the machine once and report virtual costs.
	b.Skip("see TestSendAndWaitBothModes in internal/core; modes differ only in PPE poll quantization")
}

// --- extension: data-parallel extraction scaling ----------------------------

func benchDataParallel(b *testing.B, id marvel.KernelID, n int) {
	w := benchWorkload(1)
	res, err := marvel.RunDataParallelExtraction(id, n, w, marvel.Optimized, benchMachine(), marvel.NewColdArtifactCache())
	if err != nil {
		b.Fatal(err)
	}
	if !res.Matches {
		b.Fatal("merged feature differs from reference")
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := marvel.RunDataParallelExtraction(id, n, w, marvel.Optimized, benchMachine(), marvel.NewColdArtifactCache()); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(res.Time.Microseconds(), "vtime_us")
}

func BenchmarkScalingCC1(b *testing.B) { benchDataParallel(b, marvel.KCC, 1) }
func BenchmarkScalingCC2(b *testing.B) { benchDataParallel(b, marvel.KCC, 2) }
func BenchmarkScalingCC4(b *testing.B) { benchDataParallel(b, marvel.KCC, 4) }
func BenchmarkScalingCC8(b *testing.B) { benchDataParallel(b, marvel.KCC, 8) }
func BenchmarkScalingEH8(b *testing.B) { benchDataParallel(b, marvel.KEH, 8) }

// --- verified serving ------------------------------------------------------

// benchServeConfig is the verified-serving scenario: a 16-blade pool in
// verified-dispatch mode (after the loop, the full machine simulation
// re-runs once per distinct dispatched key), bursty arrivals, and no
// deadlines so nothing is shed.
func benchServeConfig() serve.Config {
	return serve.Config{
		Blades:       16,
		MaxQueue:     8,
		MaxBatch:     3,
		Requests:     64,
		Rate:         2,
		Burst:        16,
		TallFrac:     0,
		Deadline:     -1,
		Seed:         7,
		Frame:        marvel.Workload{W: 352, H: 96, Seed: 13},
		Variant:      marvel.Optimized,
		FullFidelity: true,
		Artifacts:    benchServeArts,
	}
}

var benchServeArts = marvel.NewArtifactCache()

// benchServeCal memoizes the calibration so the benchmarks time only the
// serving run itself (calibration parallelism is already covered by the
// Fig7 benchmarks).
var benchServeCal = sync.OnceValues(func() (*serve.Calibration, error) {
	return serve.Calibrate(benchServeConfig())
})

// BenchmarkServeSeq times one verified serving run on the event loop.
func BenchmarkServeSeq(b *testing.B) {
	cal, err := benchServeCal()
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchServeConfig()
	cfg.Cal = cal
	b.ResetTimer()
	var rep *serve.Report
	for i := 0; i < b.N; i++ {
		if rep, err = serve.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.Served), "served")
}

// --- substrate micro-benchmarks ---------------------------------------------

func BenchmarkSimulatorEventThroughput(b *testing.B) {
	// How many simulated mailbox round trips per wall second the DES
	// engine sustains (harness overhead, not a paper number).
	w := benchWorkload(1)
	var err error
	for i := 0; i < b.N; i++ {
		_, err = marvel.RunPorted(marvel.PortedConfig{
			Workload:      w,
			Scenario:      marvel.MultiSPE,
			Variant:       marvel.Optimized,
			MachineConfig: benchMachine(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
