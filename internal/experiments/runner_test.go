package experiments

import (
	"reflect"
	"testing"

	"cellport/internal/marvel"
	"cellport/internal/parallel"
)

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
		runs, err := parallel.RunIndexed(workers, len(grid), func(i int) (*marvel.PortedResult, error) {
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
