package serve

import (
	"fmt"
	"testing"

	"cellport/internal/fault"
	"cellport/internal/marvel"
)

// TestCalibrateKernelMemoMissesParallelInvariant checks that the kernel
// memo's counts depend only on the calibration job set: each distinct
// kernel input misses exactly once, whichever worker reaches it first, so
// a sequential and an 8-worker calibration record identical counts.
func TestCalibrateKernelMemoMissesParallelInvariant(t *testing.T) {
	for _, plan := range []*fault.Plan{nil, fault.Seeded(7, 8)} {
		t.Run(fmt.Sprintf("faults=%v", plan != nil), func(t *testing.T) {
			var stats [][2]uint64
			for _, par := range []int{1, 8} {
				cfg := quickConfig()
				cfg.Parallel = par
				cfg.Faults = plan
				cfg.Artifacts = marvel.NewArtifactCache()
				if _, err := Calibrate(cfg); err != nil {
					t.Fatal(err)
				}
				hits, misses := cfg.Artifacts.KernelStats()
				stats = append(stats, [2]uint64{hits, misses})
			}
			if stats[0][1] == 0 || stats[0][0] == 0 {
				t.Fatalf("calibration memo counts %v: expected both hits and misses", stats[0])
			}
			if stats[0] != stats[1] {
				t.Fatalf("memo (hits, misses) at Parallel 1 = %v, at Parallel 8 = %v", stats[0], stats[1])
			}
		})
	}
}
