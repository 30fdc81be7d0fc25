package experiments

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"cellport/internal/marvel"
)

func TestRunIndexedOrderAndCompleteness(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := RunIndexed(workers, 20, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunIndexedZeroJobs(t *testing.T) {
	got, err := RunIndexed(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestRunIndexedPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := RunIndexed(4, 50, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n > 50 {
		t.Fatalf("ran %d jobs for 50 indices", n)
	}
	// Sequential path: fails fast at the erroring index.
	ran.Store(0)
	_, err = RunIndexed(1, 50, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || ran.Load() != 4 {
		t.Fatalf("sequential: err=%v ran=%d, want boom after 4 jobs", err, ran.Load())
	}
}

// TestParallelRunnerDeterminism is the harness-level replay guarantee: the
// same seeded Fig. 7 workload produces identical per-run virtual times and
// simulator event counts whether the grid executes sequentially or on the
// worker pool. Each simulation owns a private engine, so parallel host
// execution must not perturb virtual time at all.
func TestParallelRunnerDeterminism(t *testing.T) {
	cfg := quickCfg()

	runGrid := func(workers int) []*marvel.PortedResult {
		type point struct {
			scen marvel.Scenario
			n    int
		}
		var grid []point
		for _, scen := range []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE, marvel.MultiSPE2} {
			for _, n := range cfg.setSizes() {
				grid = append(grid, point{scen, n})
			}
		}
		runs, err := RunIndexed(workers, len(grid), func(i int) (*marvel.PortedResult, error) {
			return marvel.RunPorted(marvel.PortedConfig{
				Workload:      cfg.Workload(grid[i].n),
				Scenario:      grid[i].scen,
				Variant:       marvel.Optimized,
				MachineConfig: MachineConfig(),
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}

	seq := runGrid(1)
	par := runGrid(8)
	if len(seq) != len(par) {
		t.Fatalf("run counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Total != p.Total || s.OneTime != p.OneTime || s.PerImage != p.PerImage {
			t.Errorf("run %d: virtual times diverge: seq{%v %v %v} par{%v %v %v}",
				i, s.Total, s.OneTime, s.PerImage, p.Total, p.OneTime, p.PerImage)
		}
		if s.EventCount != p.EventCount {
			t.Errorf("run %d: EventCount %d (seq) vs %d (par)", i, s.EventCount, p.EventCount)
		}
		if !reflect.DeepEqual(s.KernelTime, p.KernelTime) {
			t.Errorf("run %d: kernel times diverge", i)
		}
	}

	// The assembled figure must also be byte-identical between the
	// sequential path and the parallel harness.
	seqCfg, parCfg := cfg, cfg
	seqCfg.Parallel, parCfg.Parallel = 1, 8
	a, err := Fig7(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig7(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Fig7 sequential vs parallel results differ")
	}
}
