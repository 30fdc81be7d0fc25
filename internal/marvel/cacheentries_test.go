package marvel_test

import (
	"errors"
	"testing"

	"cellport/internal/exec"
	"cellport/internal/experiments"
	"cellport/internal/marvel"
	"cellport/internal/serve"
)

// TestCacheEntriesNilIsShared: every exported entry that takes an
// artifact cache reads nil as SharedArtifacts(), and on a
// NewColdArtifactCache computes every kernel inline (the kernel memo
// reads 0 hits and 0 misses) without touching the shared cache.
func TestCacheEntriesNilIsShared(t *testing.T) {
	w := marvel.Workload{Images: 1, W: 352, H: 96, Seed: 99}
	entries := []struct {
		name string
		run  func(t *testing.T, arts *marvel.ArtifactCache) error
	}{
		{"RunPorted", func(t *testing.T, arts *marvel.ArtifactCache) error {
			_, err := marvel.RunPorted(marvel.PortedConfig{Workload: w, Scenario: marvel.SingleSPE,
				Variant: marvel.Optimized, Artifacts: arts})
			return err
		}},
		{"RunDataParallelExtraction", func(t *testing.T, arts *marvel.ArtifactCache) error {
			_, err := marvel.RunDataParallelExtraction(marvel.KCH, 2, w, marvel.Optimized, nil, arts)
			return err
		}},
		{"ExtractKernelSpec", func(t *testing.T, arts *marvel.ArtifactCache) error {
			if !marvel.RunHistogramKernel(t, marvel.ExtractKernelSpec(marvel.KCH, marvel.Optimized, arts), w) {
				return errors.New("kernel failed")
			}
			return nil
		}},
		{"exec.NewBackend", func(t *testing.T, arts *marvel.ArtifactCache) error {
			b := exec.NewBackend(exec.Options{Workers: 1, Reps: 1, Artifacts: arts})
			defer b.Close()
			_, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: marvel.SingleSPE, Variant: marvel.Optimized})
			return err
		}},
		{"serve.Config", func(t *testing.T, arts *marvel.ArtifactCache) error {
			_, err := serve.Calibrate(serve.Config{Frame: w, MaxBatch: 1, Artifacts: arts})
			return err
		}},
		{"experiments.Config", func(t *testing.T, arts *marvel.ArtifactCache) error {
			_, err := experiments.Table1(experiments.Config{Quick: true, Seed: w.Seed, Artifacts: arts})
			return err
		}},
	}
	shared := marvel.SharedArtifacts()
	lookups := func() uint64 {
		h, m := shared.Stats()
		kh, km := shared.KernelStats()
		return h + m + kh + km
	}
	for _, e := range entries {
		t.Run(e.name+"/nil", func(t *testing.T) {
			before := lookups()
			if err := e.run(t, nil); err != nil {
				t.Fatal(err)
			}
			if lookups() == before {
				t.Fatal("a nil cache did not use SharedArtifacts()")
			}
		})
		t.Run(e.name+"/cold", func(t *testing.T) {
			before := lookups()
			cold := marvel.NewColdArtifactCache()
			if err := e.run(t, cold); err != nil {
				t.Fatal(err)
			}
			if h, m := cold.KernelStats(); h != 0 || m != 0 {
				t.Fatalf("cold cache kernel stats = (%d, %d), want (0, 0)", h, m)
			}
			if lookups() != before {
				t.Fatal("a cold-cache run looked up the shared cache")
			}
		})
	}
}
