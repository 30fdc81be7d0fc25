package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"cellport/internal/marvel"
	"cellport/internal/sim"
)

// quickConfig is the small, fast serve configuration the tests share:
// the reduced-height frame keeps one calibration (16 simulations) well
// under a second.
func quickConfig() Config {
	return Config{
		Blades:    3,
		MaxQueue:  6,
		MaxBatch:  3,
		Requests:  64,
		Rate:      1.6,
		Burst:     2,
		TallFrac:  0.25,
		Seed:      7,
		Frame:     marvel.Workload{W: 352, H: 96, Seed: 20070710},
		Parallel:  4,
		Artifacts: marvel.NewArtifactCache(),
	}
}

// sharedCal memoizes one calibration of the quick configuration for the
// tests that only exercise the event loop.
var sharedCal = sync.OnceValues(func() (*Calibration, error) {
	return Calibrate(quickConfig())
})

func mustCal(t *testing.T) *Calibration {
	t.Helper()
	cal, err := sharedCal()
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func marshal(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDefaultsResolveSharedArtifacts pins the documented nil default: a
// calibration's reference run and its ported runs share one cache.
func TestDefaultsResolveSharedArtifacts(t *testing.T) {
	if got := (Config{}).withDefaults().Artifacts; got != marvel.SharedArtifacts() {
		t.Fatalf("nil Artifacts resolves to %p, want the shared cache %p", got, marvel.SharedArtifacts())
	}
	own := marvel.NewArtifactCache()
	if got := (Config{Artifacts: own}).withDefaults().Artifacts; got != own {
		t.Fatal("an explicit cache was replaced")
	}
}

// TestServeDeterminism is the tentpole guarantee: the serialized report
// is a pure function of (Config, seed) — byte-identical across repeated
// runs, across calibration parallelism, across a shared vs private
// calibration, and with instrumentation on or off.
func TestServeDeterminism(t *testing.T) {
	base := quickConfig()
	golden := marshal(t, mustRun(t, base))

	rerun := base
	rerun.Artifacts = marvel.NewArtifactCache() // fresh caches: nothing carried over
	if got := marshal(t, mustRun(t, rerun)); !bytes.Equal(got, golden) {
		t.Fatalf("rerun diverged:\n got %s\nwant %s", got, golden)
	}

	for _, par := range []int{1, 8} {
		cfg := base
		cfg.Parallel = par
		cfg.Artifacts = marvel.NewArtifactCache()
		if got := marshal(t, mustRun(t, cfg)); !bytes.Equal(got, golden) {
			t.Fatalf("parallel=%d diverged:\n got %s\nwant %s", par, got, golden)
		}
	}

	shared := base
	shared.Cal = mustCal(t)
	if got := marshal(t, mustRun(t, shared)); !bytes.Equal(got, golden) {
		t.Fatalf("shared calibration diverged from private:\n got %s\nwant %s", got, golden)
	}

	inst := base
	inst.Instrument = true
	inst.Artifacts = marvel.NewArtifactCache()
	rep := mustRun(t, inst)
	if got := marshal(t, rep); !bytes.Equal(got, golden) {
		t.Fatalf("instrumented JSON diverged:\n got %s\nwant %s", got, golden)
	}
	for _, bs := range rep.PerBlade {
		if bs.Trace == nil || bs.Metrics == nil {
			t.Fatalf("blade %d missing trace/metrics under Instrument", bs.Blade)
		}
		if bs.Dispatches > 0 && len(bs.Trace.Spans()) == 0 {
			t.Fatalf("blade %d dispatched %d batches but recorded no spans", bs.Blade, bs.Dispatches)
		}
	}
}

// checkLedger asserts full request conservation over every shed
// category (including the lifecycle ones), that the per-blade merge
// stayed blade-index-ordered, and that the per-blade and per-pool shares
// sum to the report totals.
func checkLedger(t *testing.T, rep *Report) {
	t.Helper()
	total := rep.Served + rep.ShedRejected + rep.ShedExpired + rep.ShedRerouted + rep.ShedExhausted + rep.ShedGlobal
	if total != rep.Requests {
		t.Fatalf("ledger leaks: served %d + rejected %d + expired %d + rerouted %d + exhausted %d + global %d = %d, want %d",
			rep.Served, rep.ShedRejected, rep.ShedExpired, rep.ShedRerouted, rep.ShedExhausted, rep.ShedGlobal, total, rep.Requests)
	}
	var requests, shedRerouted, shedExhausted int
	for i, bs := range rep.PerBlade {
		if bs.Blade != i {
			t.Fatalf("per-blade merge out of order: index %d holds blade %d", i, bs.Blade)
		}
		requests += bs.Requests
		shedRerouted += bs.ShedRerouted
		shedExhausted += bs.ShedExhausted
	}
	if requests != rep.Served || shedRerouted != rep.ShedRerouted || shedExhausted != rep.ShedExhausted {
		t.Fatalf("per-blade shares (requests %d, shed-rerouted %d, shed-exhausted %d) != totals (served %d, %d, %d)",
			requests, shedRerouted, shedExhausted, rep.Served, rep.ShedRerouted, rep.ShedExhausted)
	}
	if rep.Fleet != nil {
		var served int
		for _, ps := range rep.Fleet.PerPool {
			served += ps.Served
		}
		if served != rep.Served {
			t.Fatalf("per-pool served sums to %d, want %d", served, rep.Served)
		}
	}
}

// TestServeConservation checks the admission ledger: every generated
// request is served, rejected at admission, or shed as hopeless —
// nothing is lost or double-counted.
func TestServeConservation(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		cfg := quickConfig()
		cfg.Seed = seed
		cfg.Cal = mustCal(t)
		rep := mustRun(t, cfg)
		checkLedger(t, rep)
		if rep.Served > 0 && (rep.LatencyP50 <= 0 || rep.LatencyP50 > rep.LatencyP95 || rep.LatencyP95 > rep.LatencyP99) {
			t.Fatalf("seed %d: percentiles out of order: p50=%v p95=%v p99=%v",
				seed, rep.LatencyP50, rep.LatencyP95, rep.LatencyP99)
		}
		for _, bs := range rep.PerBlade {
			if bs.Dispatches > 0 && bs.Warmup <= 0 {
				t.Fatalf("seed %d: blade %d dispatched but charged no warmup", seed, bs.Blade)
			}
		}
	}
}

// TestServeBatchCoalescing checks that overload actually coalesces
// compatible requests: mean batch size above one, and strictly fewer
// dispatches than served requests.
func TestServeBatchCoalescing(t *testing.T) {
	cfg := quickConfig()
	cfg.Rate = 2
	cfg.Cal = mustCal(t)
	rep := mustRun(t, cfg)
	if rep.MeanBatch <= 1.2 {
		t.Fatalf("mean batch %.2f under 2× overload, want coalescing > 1.2", rep.MeanBatch)
	}
	if rep.Batches >= rep.Served {
		t.Fatalf("batches %d >= served %d: no coalescing happened", rep.Batches, rep.Served)
	}
}

// TestServeDeadlineShedding checks the deadline machinery: a deadline
// tighter than the queueing delay under overload must shed hopeless
// requests before dispatch, and no served request may be reported both
// on time and past its deadline inconsistently.
func TestServeDeadlineShedding(t *testing.T) {
	cfg := quickConfig()
	cfg.Rate = 2
	cfg.Deadline = 150 * sim.Millisecond
	cfg.Cal = mustCal(t)
	rep := mustRun(t, cfg)
	if rep.ShedExpired == 0 {
		t.Fatalf("tight deadline under overload shed nothing: %+v", rep)
	}
	if rep.Served+rep.ShedRejected+rep.ShedExpired != rep.Requests {
		t.Fatalf("ledger broken with deadlines: %+v", rep)
	}

	// Disabling deadlines must eliminate both expiry sheds and lateness.
	cfg.Deadline = -1
	rep = mustRun(t, cfg)
	if rep.ShedExpired != 0 || rep.Late != 0 {
		t.Fatalf("deadline-free run reports expired=%d late=%d", rep.ShedExpired, rep.Late)
	}
}

// TestEstimatorBeatsRoundRobin pins the acceptance scenario: under 2×
// overload with mixed frame geometries, estimator-driven placement
// serves strictly more requests (and rejects strictly fewer) than blind
// round-robin over the identical calibration and arrival stream, and it
// exercises both scheduling schemes.
func TestEstimatorBeatsRoundRobin(t *testing.T) {
	cfg := quickConfig()
	cfg.Rate = 2
	cfg.Burst = 1
	cfg.Cal = mustCal(t)

	cfg.Policy = PolicyEstimator
	est := mustRun(t, cfg)
	cfg.Policy = PolicyRoundRobin
	rr := mustRun(t, cfg)

	if est.Served <= rr.Served {
		t.Fatalf("estimator served %d, round-robin %d: estimator must win this pinned scenario", est.Served, rr.Served)
	}
	if est.ShedRejected >= rr.ShedRejected {
		t.Fatalf("estimator rejected %d, round-robin %d: estimator must shed less", est.ShedRejected, rr.ShedRejected)
	}
	if est.SchemeBatches["data-dist"] == 0 || est.SchemeBatches["job-dist"] == 0 {
		t.Fatalf("estimator used only one scheme: %v", est.SchemeBatches)
	}
	if rr.SchemeBatches["data-dist"] != 0 {
		t.Fatalf("round-robin must stick to job distribution, got %v", rr.SchemeBatches)
	}
	if !est.EstimatorConclusive {
		t.Fatal("quick workload calibration should be conclusive")
	}
}

// TestServeInconclusiveFallsBack forces an inconclusive calibration and
// checks the estimator policy degrades to round-robin placement instead
// of failing.
func TestServeInconclusiveFallsBack(t *testing.T) {
	cal := mustCal(t)
	broken := &Calibration{
		maxBatch: cal.maxBatch,
		services: cal.services,
		perBlade: cal.perBlade,
	}
	for i, g := range cal.geoms {
		if g == nil {
			continue
		}
		gc := *g
		gc.Conclusive = false
		broken.geoms[i] = &gc
	}

	cfg := quickConfig()
	cfg.Cal = broken
	cfg.Policy = PolicyEstimator
	est := mustRun(t, cfg)
	cfg.Policy = PolicyRoundRobin
	rr := mustRun(t, cfg)

	if est.EstimatorConclusive {
		t.Fatal("broken calibration reported conclusive")
	}
	// With the estimator disarmed, both policies are the same rotation.
	ej, rj := marshal(t, est), marshal(t, rr)
	ej = bytes.Replace(ej, []byte(`"policy":"estimator"`), []byte(`"policy":"round-robin"`), 1)
	if !bytes.Equal(ej, rj) {
		t.Fatalf("inconclusive estimator diverged from round-robin:\n est %s\n rr  %s", ej, rj)
	}
}

// TestCalibrationTable checks the per-blade capacity and that batching
// amortizes; TestCalibrationTableTotal covers the table's key grid.
func TestCalibrationTable(t *testing.T) {
	cal := mustCal(t)
	cfg := quickConfig()
	if cal.PerBladeCapacity() <= 0 {
		t.Fatal("non-positive per-blade capacity")
	}
	// Larger batches must take longer end to end but amortize better:
	// service(k)/k non-increasing for data distribution.
	for _, s := range []Scheme{SchemeJob, SchemeData} {
		prev := cal.service(svcKey{Scheme: s, Tall: false, K: 1}).Service
		for k := 2; k <= cfg.MaxBatch; k++ {
			cur := cal.service(svcKey{Scheme: s, Tall: false, K: k}).Service
			if cur <= prev {
				t.Fatalf("%v service not increasing in batch size at k=%d", s, k)
			}
			if float64(cur)/float64(k) > float64(prev) {
				t.Fatalf("%v per-request service worsened with batching at k=%d", s, k)
			}
			prev = cur
		}
	}
}

// TestCalibrationTableTotal pins the dense service table's semantics:
// every in-range key of a calibrated geometry reads nonzero (and, the
// calibration being fault-free, not degraded), and every key outside the
// calibrated range reads as the zero record — no such batch size, no
// such scheme, or a geometry the run never calibrated.
func TestCalibrationTableTotal(t *testing.T) {
	full := mustCal(t)
	stdCfg := quickConfig()
	stdCfg.TallFrac = 0
	std, err := Calibrate(stdCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Conclusive() || !std.Conclusive() {
		t.Fatal("quick calibrations must be conclusive")
	}
	if full.geoms[geomIndex(true)] == nil || std.geoms[geomIndex(true)] != nil {
		t.Fatal("tall frames must be calibrated exactly when TallFrac > 0")
	}
	type tableTest struct {
		name string
		cal  *Calibration
		key  svcKey
		zero bool
	}
	var tests []tableTest
	for _, c := range []struct {
		name string
		cal  *Calibration
	}{{"full", full}, {"standard-only", std}} {
		for _, k := range calKeys(c.cal) {
			tests = append(tests, tableTest{
				name: fmt.Sprintf("%s/%s/tall=%v/k=%d", c.name, k.Scheme, k.Tall, k.K), cal: c.cal, key: k})
		}
	}
	mb := full.MaxBatch()
	tests = append(tests,
		tableTest{name: "k=0", cal: full, key: svcKey{Scheme: SchemeJob, K: 0}, zero: true},
		tableTest{name: "k=0/data", cal: full, key: svcKey{Scheme: SchemeData, K: 0}, zero: true},
		tableTest{name: "k=maxbatch+1", cal: full, key: svcKey{Scheme: SchemeJob, Tall: true, K: mb + 1}, zero: true},
		tableTest{name: "k=maxbatch+1/data", cal: full, key: svcKey{Scheme: SchemeData, K: mb + 1}, zero: true},
		tableTest{name: "tall-uncalibrated", cal: std, key: svcKey{Scheme: SchemeJob, Tall: true, K: 1}, zero: true},
		tableTest{name: "tall-uncalibrated/data", cal: std, key: svcKey{Scheme: SchemeData, Tall: true, K: mb}, zero: true},
		tableTest{name: "scheme=numSchemes", cal: full, key: svcKey{Scheme: numSchemes, K: 1}, zero: true},
		tableTest{name: "scheme=-1", cal: full, key: svcKey{Scheme: -1, Tall: true, K: 1}, zero: true},
	)
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.key
			v := tc.cal.service(k)
			measured := tc.cal.MeasuredService(k.Scheme, k.Tall, k.K)
			est := tc.cal.EstimatedService(k.Scheme, k.Tall, k.K)
			if tc.zero {
				if v != (svc{}) || measured != 0 || est != 0 {
					t.Fatalf("out-of-range key %+v: service %v, measured %v, estimated %v; want all zero", k, v, measured, est)
				}
				return
			}
			if v.Service <= 0 || v.Warmup <= 0 || measured != v.Service || est <= 0 {
				t.Fatalf("in-range key %+v: service %v, measured %v, estimated %v; want nonzero", k, v, measured, est)
			}
			if v.Degraded {
				t.Fatalf("fault-free calibration marked degraded at %+v", k)
			}
		})
	}
}

// TestEventLoopAllocFree requires the uninstrumented serving loop to
// allocate nothing per request or per dispatch: a routed fleet run (ring,
// estimator override, autoscaler, shaped load) on the shared calibration
// at N and at 4N requests may differ by at most a small constant number
// of allocations — the arrival stream and outcome ledger are sized once
// per run, but growing them may take a few more steps.
func TestEventLoopAllocFree(t *testing.T) {
	const n, slack = 256, 16
	allocs := func(requests int) float64 {
		cfg := fleetConfig(t)
		cfg.Requests = requests
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(n), allocs(4*n)
	t.Logf("%v allocations at %d requests, %v at %d", small, n, large, 4*n)
	if large-small > slack {
		t.Fatalf("%v allocations at %d requests, %v at %d: the loop allocates per request",
			small, n, large, 4*n)
	}
}

// BenchmarkPoolEventLoop times the admission/dispatch loop alone (no
// nested dispatch simulations): calibration is shared and the stream is
// long, so per-arrival allocation on the placement and batching paths
// dominates allocs/op. The 3-blade case is the quick configuration; 16
// blades is perfbench's verified-serve width, where placement's per-blade
// pass dominates. This is the benchmark behind the placement and
// batch-buffer changes documented in EXPERIMENTS.md X4.
func BenchmarkPoolEventLoop(b *testing.B) {
	cal, err := sharedCal()
	if err != nil {
		b.Fatal(err)
	}
	for _, blades := range []int{3, 16} {
		b.Run(fmt.Sprintf("blades=%d", blades), func(b *testing.B) {
			cfg := quickConfig()
			cfg.Blades = blades
			cfg.Requests = 512
			cfg.Rate = 2
			cfg.Cal = cal
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fleetShapedConfig is one fleet-ladder rung: 4 pools × 2 blades,
// diurnal plus flash-crowd load, autoscaler, 80k requests offered at the
// fleet's capacity, on the shared calibration.
func fleetShapedConfig(b *testing.B) Config {
	cal, err := sharedCal()
	if err != nil {
		b.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Blades, cfg.Pools = 2, 4
	cfg.Requests = 80_000
	cfg.Rate = 1
	cfg.Load = &RateModel{DiurnalAmp: 0.6, FlashCount: 2, FlashFactor: 3}
	cfg.Autoscale = &Autoscale{}
	cfg.Cal = cal
	return cfg
}

// BenchmarkRunFleetShaped times one fleet-ladder-shaped Run: 4 pools × 2
// blades, diurnal plus flash-crowd load, autoscaler, 80k requests
// offered at the fleet's capacity, on the shared calibration. The
// arrival stream is drawn on a producer goroutine beside the event loop,
// so -cpu 1,2 shows both the overlap and what the producer costs on one
// P.
func BenchmarkRunFleetShaped(b *testing.B) {
	cfg := fleetShapedConfig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFitEstimatorZeroCoverageLane checks a kernel the reference run
// spent no time in leaves its geometry inconclusive: that lane's
// Kfr/Kspeed-up is 0/0, and the Eq. 3 residual must carry the NaN.
func TestFitEstimatorZeroCoverageLane(t *testing.T) {
	ref := &marvel.ReferenceResult{PerImage: 10 * sim.Millisecond, KernelTime: map[marvel.KernelID]sim.Duration{}}
	single := &marvel.PortedResult{KernelTime: map[marvel.KernelID]sim.Duration{}}
	for _, id := range marvel.KernelIDs {
		ref.KernelTime[id] = sim.Millisecond
		single.KernelTime[id] = 100 * sim.Microsecond
	}
	if g := fitEstimator(ref, single); !g.Conclusive || g.LaneMax <= 0 {
		t.Fatalf("fully covered kernels left the estimate inconclusive: %+v", g)
	}
	ref.KernelTime[marvel.KCH] = 0
	if g := fitEstimator(ref, single); g.Conclusive {
		t.Fatalf("a zero-coverage lane still gave a conclusive estimate: %+v", g)
	}
}
