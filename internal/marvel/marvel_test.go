package marvel

import (
	"math"
	"testing"

	"cellport/internal/cell"
	"cellport/internal/cost"
	"cellport/internal/metrics"
	"cellport/internal/profile"
	"cellport/internal/sim"
)

// small test workload: full-width frames keep DMA strides realistic but a
// reduced height keeps the correlogram cheap in wall time.
func testWorkload(n int) Workload {
	return Workload{Images: n, W: 352, H: 96, Seed: 99}
}

func testMachineConfig() *cell.Config {
	cfg := cell.DefaultConfig()
	cfg.MemorySize = 64 << 20
	return &cfg
}

func TestModelSetShapes(t *testing.T) {
	ms, err := NewModelSet(1)
	if err != nil {
		t.Fatal(err)
	}
	// §5.5: support-vector count × feature dimension per concept model.
	want := map[KernelID][2]int{KCH: {186, 166}, KCC: {225, 166}, KEH: {210, 64}, KTX: {255, 10}}
	for id, w := range want {
		m := ms.slots[kernelOf(id).score].model
		if n, dim := len(m.SupportVectors), m.Dim(); n != w[0] || dim != w[1] {
			t.Errorf("%s model: %dx%d, want %dx%d", id, n, dim, w[0], w[1])
		}
	}
}

func TestReferenceCoverageMatchesPaper(t *testing.T) {
	// §5.2: per-image coverage CH 8%, CC 54%, TX 6%, EH 28%, CD 2% at the
	// paper's 352×240 frame size; image read ~2%; one-time overhead ~60%
	// of single-image total on the PPE.
	w := DefaultWorkload(1)
	ms, err := NewModelSet(w.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ref := RunReference(cost.NewPPE(), w, ms)
	cov := ref.KernelCoverage()
	want := map[KernelID]float64{KCH: 0.08, KCC: 0.54, KTX: 0.06, KEH: 0.28, KCD: 0.02}
	for id, target := range want {
		if got := cov[id]; math.Abs(got-target) > 0.02 {
			t.Errorf("%s coverage = %.3f, want %.2f±0.02", id, got, target)
		}
	}
	oneTimeFrac := ref.OneTime.Seconds() / ref.Total.Seconds()
	if oneTimeFrac < 0.53 || oneTimeFrac > 0.67 {
		t.Errorf("one-time fraction = %.2f, want ~0.60 (§5.2)", oneTimeFrac)
	}
	if pc := ref.ProcessingCoverage(); pc < 0.30 || pc > 0.45 {
		t.Errorf("processing coverage (1 image) = %.2f; with one-time overhead it should sit near 0.38", pc)
	}
}

func TestReferenceProcessingCoverageGrowsWithImages(t *testing.T) {
	// §5.2: extraction+detection is 87% of time for 1 image when the
	// one-time overhead is excluded, 96% for 50 images overall. We check
	// the trend with a smaller set (50 full-size images is wall-expensive).
	w := Workload{Images: 1, W: 352, H: 240, Seed: 5}
	ms, err := NewModelSet(w.Seed)
	if err != nil {
		t.Fatal(err)
	}
	one := RunReference(cost.NewPPE(), w, ms)
	w.Images = 8
	eight := RunReference(cost.NewPPE(), w, ms)
	if eight.ProcessingCoverage() <= one.ProcessingCoverage() {
		t.Errorf("coverage should grow with set size: 1->%.3f, 8->%.3f",
			one.ProcessingCoverage(), eight.ProcessingCoverage())
	}
	// Excluding one-time overhead, per-image processing is ~98%
	// extraction+detection (the §5.2 87% includes per-image preprocessing
	// within a run that also amortizes startup).
	var kernels sim.Duration
	for _, d := range one.KernelTime {
		kernels += d
	}
	frac := kernels.Seconds() / one.PerImage.Seconds()
	if frac < 0.93 || frac > 0.995 {
		t.Errorf("per-image kernel fraction = %.3f", frac)
	}
}

func TestReferenceHostRatios(t *testing.T) {
	// §5.2: kernels run 2.5× slower on the PPE than the Laptop, 3.2×
	// slower than the Desktop; preprocessing only ~1.2×/1.4×.
	w := testWorkload(2)
	ms, err := NewModelSet(w.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ppe := RunReference(cost.NewPPE(), w, ms)
	desk := RunReference(cost.NewDesktop(), w, ms)
	lap := RunReference(cost.NewLaptop(), w, ms)
	for _, id := range KernelIDs {
		rd := ppe.KernelTime[id].Seconds() / desk.KernelTime[id].Seconds()
		rl := ppe.KernelTime[id].Seconds() / lap.KernelTime[id].Seconds()
		if math.Abs(rd-3.2) > 0.25 {
			t.Errorf("%s PPE/Desktop = %.2f, want ~3.2", id, rd)
		}
		if math.Abs(rl-2.5) > 0.25 {
			t.Errorf("%s PPE/Laptop = %.2f, want ~2.5", id, rl)
		}
	}
	// Preprocessing ratios depend on the decode/IO balance, i.e. on the
	// paper's full frame size.
	wf := DefaultWorkload(1)
	ppeF := RunReference(cost.NewPPE(), wf, ms)
	deskF := RunReference(cost.NewDesktop(), wf, ms)
	lapF := RunReference(cost.NewLaptop(), wf, ms)
	preL := ppeF.PreprocessPerImage.Seconds() / lapF.PreprocessPerImage.Seconds()
	preD := ppeF.PreprocessPerImage.Seconds() / deskF.PreprocessPerImage.Seconds()
	if preL < 1.05 || preL > 1.45 {
		t.Errorf("preprocess PPE/Laptop = %.2f, want ~1.2", preL)
	}
	if preD < 1.2 || preD > 1.8 {
		t.Errorf("preprocess PPE/Desktop = %.2f, want ~1.4", preD)
	}
}

func TestReferenceDeterministic(t *testing.T) {
	w := testWorkload(1)
	ms, err := NewModelSet(w.Seed)
	if err != nil {
		t.Fatal(err)
	}
	a := RunReference(cost.NewPPE(), w, ms)
	b := RunReference(cost.NewPPE(), w, ms)
	if a.Total != b.Total {
		t.Fatalf("reference totals differ: %v vs %v", a.Total, b.Total)
	}
	for i := range a.Images {
		if a.Images[i].Scores != b.Images[i].Scores {
			t.Fatal("reference scores differ across runs")
		}
	}
}

func TestProfilerSeesKernelClasses(t *testing.T) {
	// Enough images that per-image kernels dominate the one-time model
	// load in the flat profile, as in the paper's 50-image profiling run.
	w := testWorkload(10)
	ms, err := NewModelSet(w.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ref := RunReference(cost.NewPPE(), w, ms)
	cands := ref.Profile.IdentifyKernels(profile.IdentifyOptions{MinCoreCoverage: 0.01, MaxCandidates: 8})
	classes := map[string]bool{}
	for _, c := range cands {
		classes[c.Class] = true
	}
	for _, want := range []string{"ColorHistogram", "ColorCorrelogram", "Texture", "EdgeHistogram", "ConceptDetect"} {
		if !classes[want] {
			t.Errorf("profiler did not propose %s as a kernel (got %v)", want, cands)
		}
	}
	if cands[0].Class != "ColorCorrelogram" {
		t.Errorf("top candidate = %s, want ColorCorrelogram (54%% coverage)", cands[0].Class)
	}
}

// TestPortedMatchesReferenceExactly also pins why the bus's general
// water-filling solver never runs in a port: every MFC transfer crosses
// main memory's port, so each reallocation is a closed form. A DMA path
// between two local stores, running beside main-memory transfers,
// reaches the waterfill and fails here.
func TestPortedMatchesReferenceExactly(t *testing.T) {
	// The paper's functional invariant: the port must keep the
	// application's outputs identical at every step.
	for _, variant := range []Variant{Naive, Optimized} {
		for scen := Scenario(0); int(scen) < len(schedules); scen++ {
			mc := testMachineConfig()
			mc.Metrics = metrics.NewRegistry()
			res, err := RunPorted(PortedConfig{
				Workload:      testWorkload(2),
				Scenario:      scen,
				Variant:       variant,
				Validate:      true,
				MachineConfig: mc,
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", variant, scen, err)
			}
			if res.ValidationErrors != 0 {
				t.Errorf("%v/%v: %d validation mismatches", variant, scen, res.ValidationErrors)
			}
			fast, _ := res.Metrics.Get("eib", "realloc_fast_path", "counter")
			full, ok := res.Metrics.Get("eib", "realloc_full_waterfill", "counter")
			if !ok || full.Value != 0 || fast.Value == 0 {
				t.Errorf("%v/%v: eib reallocations fast %d, full waterfill %d (harvested %v); want fast > 0, full 0",
					variant, scen, fast.Value, full.Value, ok)
			}
		}
	}
}

func TestScenarioOrdering(t *testing.T) {
	// Parallel scheduling must not be slower than sequential, and the
	// replicated-detector scenario must be at least as fast as the shared
	// detector (§5.5 finds the difference very small).
	run := func(s Scenario) sim.Duration {
		res, err := RunPorted(PortedConfig{
			Workload:      testWorkload(2),
			Scenario:      s,
			Variant:       Optimized,
			MachineConfig: testMachineConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PerImage
	}
	single, multi, multi2 := run(SingleSPE), run(MultiSPE), run(MultiSPE2)
	if multi >= single {
		t.Errorf("multi-SPE (%v) not faster than single-SPE (%v)", multi, single)
	}
	if multi2 > multi {
		t.Errorf("multi-SPE2 (%v) slower than multi-SPE (%v)", multi2, multi)
	}
	// The paper's observation: scenario 3 barely improves on scenario 2.
	if delta := (multi.Seconds() - multi2.Seconds()) / multi.Seconds(); delta > 0.15 {
		t.Errorf("multi2 improvement %.1f%% implausibly large", delta*100)
	}
}

func TestOptimizedBeatsNaive(t *testing.T) {
	run := func(v Variant) sim.Duration {
		res, err := RunPorted(PortedConfig{
			Workload:      testWorkload(1),
			Scenario:      SingleSPE,
			Variant:       v,
			MachineConfig: testMachineConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PerImage
	}
	naive, opt := run(Naive), run(Optimized)
	if opt >= naive {
		t.Fatalf("optimized (%v) not faster than naive (%v)", opt, naive)
	}
	// The naive correlogram alone runs slower than the PPE (0.43×), so
	// the gap must be large.
	if ratio := naive.Seconds() / opt.Seconds(); ratio < 5 {
		t.Errorf("naive/optimized ratio = %.1f, expected >5", ratio)
	}
}

func TestPortedDeterministic(t *testing.T) {
	run := func() *PortedResult {
		res, err := RunPorted(PortedConfig{
			Workload:      testWorkload(1),
			Scenario:      MultiSPE,
			Variant:       Optimized,
			MachineConfig: testMachineConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Total != b.Total || a.PerImage != b.PerImage {
		t.Fatalf("ported runs differ: %v/%v vs %v/%v", a.Total, a.PerImage, b.Total, b.PerImage)
	}
}

func TestSVChunkRowsAlignment(t *testing.T) {
	for _, dim := range []int{kernelOf(KCH).dim, kernelOf(KEH).dim, kernelOf(KTX).dim, 7, 33, 100} {
		k := svChunkRows(dim)
		if k < 1 {
			t.Fatalf("dim %d: k=%d", dim, k)
		}
		bytes := k * dim * 4
		if bytes > 16384 {
			t.Errorf("dim %d: chunk %d bytes exceeds DMA limit", dim, bytes)
		}
		if k > 1 && bytes%16 != 0 {
			t.Errorf("dim %d: chunk %d bytes not quadword-aligned", dim, bytes)
		}
	}
}

func TestPipelinedScenario(t *testing.T) {
	// The extension schedule must (1) keep outputs exact, (2) beat every
	// paper scenario per image once preprocessing overlaps, and (3) be
	// bounded below by the preprocessing time itself.
	w := testWorkload(4)
	res, err := RunPorted(PortedConfig{
		Workload:      w,
		Scenario:      Pipelined,
		Variant:       Optimized,
		Validate:      true,
		MachineConfig: testMachineConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ValidationErrors != 0 {
		t.Fatalf("pipelined validation: %d mismatches", res.ValidationErrors)
	}
	m2, err := RunPorted(PortedConfig{
		Workload:      w,
		Scenario:      MultiSPE2,
		Variant:       Optimized,
		MachineConfig: testMachineConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerImage >= m2.PerImage {
		t.Errorf("pipelined per-image %v not faster than multi-spe2 %v", res.PerImage, m2.PerImage)
	}
	ms, err := NewModelSet(w.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ref := RunReference(cost.NewPPE(), w, ms)
	// Lower bound: cannot beat pure preprocessing throughput.
	if res.PerImage < ref.PreprocessPerImage*9/10 {
		t.Errorf("pipelined per-image %v below the preprocessing bound %v", res.PerImage, ref.PreprocessPerImage)
	}
}

func TestPipelinedSingleImage(t *testing.T) {
	// Degenerate pipeline (nothing to overlap) must still be correct.
	res, err := RunPorted(PortedConfig{
		Workload:      testWorkload(1),
		Scenario:      Pipelined,
		Variant:       Optimized,
		Validate:      true,
		MachineConfig: testMachineConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ValidationErrors != 0 {
		t.Fatalf("validation: %d mismatches", res.ValidationErrors)
	}
}

// TestCompareImageResultsScores pins the score half of the validation
// semantics: a score matches only when the reference, rounded to float32
// as the kernel reports it, equals the ported score exactly, so a NaN on
// either side is always a mismatch.
func TestCompareImageResultsScores(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name     string
		ref, got float64
		want     int
	}{
		{"equal", 1, 1, 0},
		{"equal after float32 rounding", 1 + 1e-12, 1, 0},
		{"different", 1.5, 1, 1},
		{"NaN in reference", nan, 1, 1},
		{"NaN in ported", 1, nan, 1},
		{"NaN on both sides", nan, nan, 1},
	}
	for _, c := range cases {
		var ref, got ImageResult
		ref.Scores[2], got.Scores[2] = c.ref, c.got
		if n := CompareImageResults(&ref, &got); n != c.want {
			t.Errorf("%s: %d mismatches, want %d", c.name, n, c.want)
		}
	}
}

// TestRunPortedUnknownScenario checks that a scenario with no schedule is
// an error, not a run of some other schedule.
func TestRunPortedUnknownScenario(t *testing.T) {
	for _, sc := range []Scenario{-1, Pipelined + 1} {
		if _, err := RunPorted(PortedConfig{Workload: testWorkload(1), Scenario: sc, MachineConfig: testMachineConfig()}); err == nil {
			t.Errorf("RunPorted accepted scenario %d", int(sc))
		}
	}
}
