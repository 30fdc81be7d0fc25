package experiments

import (
	"math"
	"strings"
	"testing"

	"cellport/internal/marvel"
)

// quickCfg runs the experiments at reduced size; the shape checks below
// hold at any size, and TestPaperNumbersFullSize pins the headline
// numbers at the paper's frame size.
func quickCfg() Config { return Config{Quick: true, Seed: 7} }

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

// TestPaperNumbersFullSize is the headline reproduction check: at the
// paper's 352×240 frame size, Table 1 speed-ups land within 5% of the
// published values and coverage within 2 points.
func TestPaperNumbersFullSize(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size run skipped with -short")
	}
	rows, err := Table1(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if e := relErr(r.SpeedUp, r.PaperSpeedUp); e > 0.05 {
			t.Errorf("%s speed-up %.2f vs paper %.2f (%.1f%% off)",
				r.Kernel, r.SpeedUp, r.PaperSpeedUp, e*100)
		}
		if math.Abs(r.Coverage-r.PaperCoverage) > 0.02 {
			t.Errorf("%s coverage %.3f vs paper %.2f", r.Kernel, r.Coverage, r.PaperCoverage)
		}
	}
}

func TestNaiveSpeedupsFullSize(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size run skipped with -short")
	}
	rows, err := NaiveSpeedups(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PaperSpeedUp == 0 {
			continue // not measured by the paper
		}
		if e := relErr(r.SpeedUp, r.PaperSpeedUp); e > 0.10 {
			t.Errorf("naive %s speed-up %.2f vs paper %.2f (%.1f%% off)",
				r.Kernel, r.SpeedUp, r.PaperSpeedUp, e*100)
		}
	}
	// The §5.3 headline: the naive correlogram port is SLOWER than the PPE.
	for _, r := range rows {
		if r.Kernel == marvel.KCC && r.SpeedUp >= 1 {
			t.Errorf("naive CC speed-up %.2f, must be < 1", r.SpeedUp)
		}
	}
}

func TestEstimatorErrorsUnderTwoPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size run skipped with -short")
	}
	r, err := Eqns(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Eq1At10x-1.0989) > 0.0001 || math.Abs(r.Eq1At100x-1.1098) > 0.0002 {
		t.Errorf("Eq.1 examples: %.4f / %.4f", r.Eq1At10x, r.Eq1At100x)
	}
	for _, s := range r.Scenarios {
		if s.ErrorFrac > 0.02 {
			t.Errorf("%s estimate error %.2f%% exceeds the paper's 2%%", s.Name, s.ErrorFrac*100)
		}
		if s.Measured <= 1 {
			t.Errorf("%s measured speed-up %.2f not > 1", s.Name, s.Measured)
		}
	}
	// Scenario ordering: parallel beats sequential; replication only
	// marginally beats the shared detector.
	if len(r.Scenarios) != 3 {
		t.Fatalf("%d scenario rows, want 3", len(r.Scenarios))
	}
	s1, s2, s3 := r.Scenarios[0].Measured, r.Scenarios[1].Measured, r.Scenarios[2].Measured
	if !(s1 < s2 && s2 <= s3) {
		t.Errorf("scenario ordering broken: %.2f %.2f %.2f", s1, s2, s3)
	}
	if (s3-s2)/s2 > 0.10 {
		t.Errorf("multi-SPE2 gain %.1f%% implausibly large (paper: ~2%%)", (s3-s2)/s2*100)
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("fig6 rows = %d", len(rows))
	}
	for _, r := range rows {
		// Ordering along the log axis: SPE fastest, PPE slowest of the
		// scalar targets, Desktop fastest host.
		if !(r.SPE < r.Desktop && r.Desktop < r.Laptop && r.Laptop < r.PPE) {
			t.Errorf("%s time ordering violated: SPE %v Desktop %v Laptop %v PPE %v",
				r.Kernel, r.SPE, r.Desktop, r.Laptop, r.PPE)
		}
	}
	var sb strings.Builder
	RenderFig6(&sb, rows)
	if !strings.Contains(sb.String(), "CCExtract") || !strings.Contains(sb.String(), "█") {
		t.Error("fig6 rendering incomplete")
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range CellConfigs {
		for _, rm := range RefMachines {
			cells := r.SpeedUp[cc][rm]
			if len(cells) != len(r.Sizes) {
				t.Fatalf("%s/%s: %d cells", cc, rm, len(cells))
			}
			// Whole-run speed-up grows with set size (one-time overhead
			// amortizes) and approaches the per-image speed-up.
			for i := 1; i < len(cells); i++ {
				if cells[i].Whole < cells[i-1].Whole {
					t.Errorf("%s/%s: whole-run speed-up not monotone: %v", cc, rm, cells)
				}
			}
			last := cells[len(cells)-1]
			if last.Whole > last.PerImage*1.001 {
				t.Errorf("%s/%s: whole-run %.2f exceeds per-image %.2f", cc, rm, last.Whole, last.PerImage)
			}
		}
	}
	// Order of magnitude over the commodity hosts per image (the paper's
	// headline claim).
	if s := r.SpeedUp["multi-spe"]["Desktop"][0].PerImage; s < 5 {
		t.Errorf("multi-SPE vs Desktop per-image speed-up %.2f; expected order-of-magnitude", s)
	}
	if s1, s2 := r.SpeedUp["single-spe"]["PPE"][0].PerImage, r.SpeedUp["multi-spe"]["PPE"][0].PerImage; s2 <= s1 {
		t.Errorf("multi-SPE (%.2f) should beat single-SPE (%.2f)", s2, s1)
	}
	var sb strings.Builder
	RenderFig7(&sb, r)
	if !strings.Contains(sb.String(), "vs Desktop") {
		t.Error("fig7 rendering incomplete")
	}
}

func TestProfileExperiment(t *testing.T) {
	r, err := ProfileExp(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Per-image kernel coverage (one-time excluded) is near-total; the
	// whole-run set coverage includes the one-time overhead, which the
	// quick workload does not fully amortize.
	if r.CoverageOneImage < 0.90 || r.CoverageOneImage > 1.0 {
		t.Errorf("one-image kernel coverage %.2f out of range", r.CoverageOneImage)
	}
	if r.CoverageSet < 0.55 {
		t.Errorf("set coverage %.2f too low", r.CoverageSet)
	}
	classes := map[string]bool{}
	for _, c := range r.Candidates {
		classes[c.Class] = true
	}
	for _, want := range []string{"ColorCorrelogram", "EdgeHistogram"} {
		if !classes[want] {
			t.Errorf("candidate %s missing (got %v)", want, r.Candidates)
		}
	}
	var sb strings.Builder
	RenderProfile(&sb, r)
	if !strings.Contains(sb.String(), "flat profile") {
		t.Error("profile rendering incomplete")
	}
}

func TestHostsExperiment(t *testing.T) {
	r, err := HostsExp(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range marvel.KernelIDs {
		if math.Abs(r.KernelSlowdownDesktop[id]-3.2) > 0.3 {
			t.Errorf("%s desktop slow-down %.2f", id, r.KernelSlowdownDesktop[id])
		}
		if math.Abs(r.KernelSlowdownLaptop[id]-2.5) > 0.3 {
			t.Errorf("%s laptop slow-down %.2f", id, r.KernelSlowdownLaptop[id])
		}
	}
	// Preprocessing ports with a much smaller penalty than compute.
	if r.PreprocSlowdownDesk >= 2.0 || r.PreprocSlowdownLaptop >= 1.7 {
		t.Errorf("preprocessing slow-downs %.2f/%.2f too large",
			r.PreprocSlowdownDesk, r.PreprocSlowdownLaptop)
	}
	var sb strings.Builder
	RenderHosts(&sb, r)
	if !strings.Contains(sb.String(), "one-time overhead") {
		t.Error("hosts rendering incomplete")
	}
}

func TestScalingExperiment(t *testing.T) {
	rows, err := Scaling(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 4 kernels × 4 SPE counts", len(rows))
	}
	byKernel := map[marvel.KernelID][]ScalingRow{}
	for _, r := range rows {
		if !r.Matches {
			t.Errorf("%s/%d: merged feature not exact", r.Kernel, r.NSPEs)
		}
		byKernel[r.Kernel] = append(byKernel[r.Kernel], r)
	}
	// The correlogram — the compute-dominated kernel — must scale well to
	// 4 SPEs; efficiency never exceeds 1 by construction (plus epsilon
	// for round-trip noise).
	for _, r := range byKernel[marvel.KCC] {
		if r.NSPEs == 4 && r.SpeedUp < 2.5 {
			t.Errorf("CC on 4 SPEs: speed-up %.2f too low", r.SpeedUp)
		}
		if r.Efficiency > 1.05 {
			t.Errorf("%s/%d efficiency %.2f > 1", r.Kernel, r.NSPEs, r.Efficiency)
		}
	}
	var sb strings.Builder
	RenderScaling(&sb, rows)
	if !strings.Contains(sb.String(), "CCExtract") {
		t.Error("scaling rendering incomplete")
	}
}

func TestPipelineExperiment(t *testing.T) {
	rows, err := Pipeline(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Ordering: single < multi2 < pipelined.
	if !(rows[0].SpeedUp < rows[1].SpeedUp && rows[1].SpeedUp < rows[2].SpeedUp) {
		t.Errorf("pipeline ordering broken: %+v", rows)
	}
	// The pipeline must deliver a substantial gain over scenario 3 (it
	// removes ~half the critical path).
	if rows[2].SpeedUp < rows[1].SpeedUp*1.15 {
		t.Errorf("pipelined gain too small: %.2f vs %.2f", rows[2].SpeedUp, rows[1].SpeedUp)
	}
	var sb strings.Builder
	RenderPipeline(&sb, rows)
	if !strings.Contains(sb.String(), "pipelined") {
		t.Error("pipeline rendering incomplete")
	}
}

func TestOverheadExperiment(t *testing.T) {
	rows, err := Overhead(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Round trips grow with the polling interval: coarser polls see the
	// result later.
	for i := 1; i < 4; i++ {
		if rows[i].RoundTrip < rows[i-1].RoundTrip {
			t.Errorf("round trip not monotone in poll interval: %+v", rows)
		}
	}
	// Interrupt mode beats coarse polling.
	intr := rows[4]
	if intr.RoundTrip >= rows[3].RoundTrip {
		t.Errorf("interrupt (%v) should beat 4us polling (%v)", intr.RoundTrip, rows[3].RoundTrip)
	}
	for _, r := range rows {
		if r.RoundTrip <= 0 {
			t.Errorf("non-positive round trip: %+v", r)
		}
	}
	var sb strings.Builder
	RenderOverhead(&sb, rows)
	if !strings.Contains(sb.String(), "interrupt") {
		t.Error("overhead rendering incomplete")
	}
}
