package cost

import (
	"math"
	"testing"
	"testing/quick"

	"cellport/internal/sim"
)

// TestScalarThroughputRatios pins sustained scalar ops/second (clock times
// scalar IPC) against the paper's §5.2 host ratios.
func TestScalarThroughputRatios(t *testing.T) {
	ppe, desk, lap := NewPPE(), NewDesktop(), NewLaptop()
	ops := func(m *Model) float64 { return m.ClockHz * m.ScalarIPC }
	if r := ops(desk) / ops(ppe); math.Abs(r-3.2) > 0.01 {
		t.Errorf("Desktop/PPE = %.3f, want 3.2 (paper §5.2)", r)
	}
	if r := ops(lap) / ops(ppe); math.Abs(r-2.5) > 0.01 {
		t.Errorf("Laptop/PPE = %.3f, want 2.5 (paper §5.2)", r)
	}
}

func TestCyclesToDuration(t *testing.T) {
	ppe := NewPPE()
	// 3.2e9 cycles at 3.2 GHz is exactly one second.
	if got := ppe.CyclesToDuration(3.2e9); got != sim.Second {
		t.Fatalf("3.2e9 cycles = %v, want 1s", got)
	}
	if got := ppe.CyclesToDuration(0); got != 0 {
		t.Fatalf("0 cycles = %v, want 0", got)
	}
	if got := ppe.CyclesToDuration(-5); got != 0 {
		t.Fatalf("negative cycles = %v, want 0", got)
	}
}

func TestScalarOps(t *testing.T) {
	ppe := NewPPE()
	// 1.6e9 ops at 1.6 Gops/s sustained is one second.
	if got := ppe.ScalarOps(1.6e9); got != sim.Second {
		t.Fatalf("ScalarOps(1.6e9) = %v, want 1s", got)
	}
}

func TestSIMDOpsPeakRates(t *testing.T) {
	spe := NewSPE()
	// §2: 8-bit ops issue at 32/cycle -> 32*3.2e9 ops/s.
	if got := spe.SIMDOps(32*3.2e9, Bits8, 1.0); got != sim.Second {
		t.Fatalf("Bits8 peak: got %v, want 1s", got)
	}
	if got := spe.SIMDOps(8*3.2e9, Bits32, 1.0); got != sim.Second {
		t.Fatalf("Bits32 peak: got %v, want 1s", got)
	}
	// Double precision: 2 ops / 7 cycles.
	want := spe.CyclesToDuration(7)
	if got := spe.SIMDOps(2, Bits64, 1.0); got != want {
		t.Fatalf("Bits64: got %v, want %v", got, want)
	}
}

func TestSIMDFallsBackToScalar(t *testing.T) {
	desk := NewDesktop() // no SIMD map at all in our model
	if got, want := desk.SIMDOps(1e6, Bits8, 0.9), desk.ScalarOps(1e6); got != want {
		t.Fatalf("fallback: got %v, want scalar %v", got, want)
	}
}

func TestSIMDEfficiencyScales(t *testing.T) {
	spe := NewSPE()
	full := spe.SIMDOps(1e9, Bits16, 1.0)
	half := spe.SIMDOps(1e9, Bits16, 0.5)
	ratio := float64(half) / float64(full)
	if math.Abs(ratio-2.0) > 1e-9 {
		t.Fatalf("half efficiency should double time; ratio = %v", ratio)
	}
}

func TestSIMDBadEfficiencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for efficiency > 1")
		}
	}()
	NewSPE().SIMDOps(10, Bits8, 1.5)
}

func TestBranchesUseDefaultRate(t *testing.T) {
	spe := NewSPE()
	got := spe.Branches(1e6, -1)
	want := spe.CyclesToDuration(1e6 * spe.DefaultMispredict * spe.BranchPenaltyCycles)
	if got != want {
		t.Fatalf("Branches default = %v, want %v", got, want)
	}
	if spe.Branches(0, -1) != 0 {
		t.Fatal("zero branches should cost nothing")
	}
}

func TestDiskRead(t *testing.T) {
	lap := NewLaptop()
	got := lap.DiskRead(45e6) // exactly one second of bandwidth plus latency
	want := lap.DiskLatency + sim.Second
	if got != want {
		t.Fatalf("DiskRead = %v, want %v", got, want)
	}
	if NewLaptop().DiskRead(-10) != lap.DiskLatency {
		t.Fatal("negative bytes should cost only latency")
	}
}

func TestMemStream(t *testing.T) {
	spe := NewSPE()
	if got := spe.MemStream(25.6e9); got != sim.Second {
		t.Fatalf("MemStream = %v, want 1s", got)
	}
	if spe.MemStream(0) != 0 {
		t.Fatal("zero bytes should be free")
	}
}

// Property: durations are monotone in work for every model.
func TestPropMonotoneWork(t *testing.T) {
	models := []*Model{NewPPE(), NewSPE(), NewDesktop(), NewLaptop()}
	f := func(a, b uint32) bool {
		lo, hi := float64(a), float64(a)+float64(b)
		for _, m := range models {
			if m.ScalarOps(hi) < m.ScalarOps(lo) {
				return false
			}
			if m.SIMDOps(hi, Bits16, 0.7) < m.SIMDOps(lo, Bits16, 0.7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SIMD at full efficiency is never slower than scalar on the SPE
// for widths the SPE supports.
func TestPropSIMDBeatsScalarOnSPE(t *testing.T) {
	spe := NewSPE()
	f := func(n uint32) bool {
		work := float64(n) + 1
		for _, w := range []Width{Bits8, Bits16, Bits32} {
			if spe.SIMDOps(work, w, 1.0) > spe.ScalarOps(work) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
