package marvel

import (
	"fmt"
	"reflect"
	"testing"

	"cellport/internal/fault"
)

// memoPlan is a seeded machine plan whose dma-corrupt fires in the
// kernel-memo tests' runs (checked by TestKernelMemoMatchesInline).
func memoPlan() *fault.Plan { return fault.Seeded(3, 8) }

// corruptFired reports whether a run's fault report records a fired
// dma-corrupt.
func corruptFired(res *PortedResult) bool {
	if res.Faults == nil {
		return false
	}
	for _, e := range res.Faults.Injected {
		if e.Kind == fault.DMACorrupt.String() {
			return true
		}
	}
	return false
}

// TestKernelMemoMatchesInline checks that the kernel memo is invisible in
// every result: a cold-cache run (kernels computed inline), a cold-memo run
// and a warm-memo run of the same config produce deeply equal
// PortedResults — outputs, EventCount, KernelTime, Total/OneTime, fault
// report — for every scenario × variant, with and without a seeded
// machine plan that corrupts a DMA.
func TestKernelMemoMatchesInline(t *testing.T) {
	corrupted := 0
	for _, scen := range []Scenario{SingleSPE, MultiSPE, MultiSPE2, Pipelined} {
		for _, v := range []Variant{Naive, Optimized} {
			for _, plan := range []*fault.Plan{nil, memoPlan()} {
				name := fmt.Sprintf("%v/%v/faults=%v", scen, v, plan != nil)
				t.Run(name, func(t *testing.T) {
					cfg := PortedConfig{
						Workload:      testWorkload(2),
						Scenario:      scen,
						Variant:       v,
						Validate:      true,
						MachineConfig: testMachineConfig(),
						Faults:        plan,
						Artifacts:     NewColdArtifactCache(),
					}
					inline := mustRun(t, cfg)

					cfg.Artifacts = NewArtifactCache()
					cold := mustRun(t, cfg)
					_, coldMisses := cfg.Artifacts.KernelStats()
					warm := mustRun(t, cfg)
					hits, misses := cfg.Artifacts.KernelStats()

					if coldMisses == 0 {
						t.Fatal("cold-memo run never consulted the kernel memo")
					}
					if misses != coldMisses || hits == 0 {
						t.Fatalf("warm run: memo hits/misses %d/%d (cold misses %d), want all hits", hits, misses, coldMisses)
					}
					for _, got := range []struct {
						label string
						res   *PortedResult
					}{{"cold memo", cold}, {"warm memo", warm}} {
						if !reflect.DeepEqual(got.res, inline) {
							t.Errorf("%s result differs from the inline run:\n got %+v\nwant %+v", got.label, got.res, inline)
						}
					}
					if inline.ValidationErrors != 0 {
						t.Errorf("%d validation errors", inline.ValidationErrors)
					}
					if corruptFired(inline) {
						corrupted++
					}
				})
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("the seeded plan corrupted no DMA in any run: the fault rows prove nothing")
	}
}

// TestKernelMemoDMACorruptFault checks that a warm memo cannot mask a
// corrupted transfer: the corrupted band hashes to a key the clean run
// never stored, so the kernel recomputes over the corrupted bytes, the
// MFC's latched error still trips supervision, and the fault report
// equals the cold-cache run's.
func TestKernelMemoDMACorruptFault(t *testing.T) {
	cfg := PortedConfig{
		Workload:      testWorkload(1),
		Scenario:      SingleSPE,
		Variant:       Naive,
		Validate:      true,
		MachineConfig: testMachineConfig(),
		Artifacts:     NewArtifactCache(),
	}
	mustRun(t, cfg) // warm the memo with the clean run
	_, warmMisses := cfg.Artifacts.KernelStats()

	// SPE0 runs the histogram kernel; its first command fetches the
	// header and the third delivers a band of pixel rows.
	plan, err := fault.Parse("dma-corrupt:spe=0,n=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	memo := mustRun(t, cfg)
	_, misses := cfg.Artifacts.KernelStats()

	cfg.Artifacts = NewColdArtifactCache()
	inline := mustRun(t, cfg)

	if !corruptFired(inline) || inline.Faults.Retries == 0 {
		t.Fatalf("corruption did not trip supervision: %+v", inline.Faults)
	}
	if misses == warmMisses {
		t.Fatal("corrupted run hit the warm memo: the key ignores the delivered bytes")
	}
	if !reflect.DeepEqual(memo.Faults, inline.Faults) {
		t.Fatalf("fault report differs from the cold-cache run:\n got %+v\nwant %+v", memo.Faults, inline.Faults)
	}
	if !reflect.DeepEqual(memo, inline) {
		t.Fatal("corrupted run's result differs from the cold-cache run")
	}
}

// TestKernelMemoDataParallel covers the OpRunPartial path: the raw
// accumulator words served from the memo merge into the same feature at
// the same virtual time as inline partial kernels.
func TestKernelMemoDataParallel(t *testing.T) {
	w := testWorkload(1)
	for _, id := range []KernelID{KCH, KCC, KEH, KTX} {
		for _, n := range []int{1, 3} {
			inline, err := RunDataParallelExtraction(id, n, w, Optimized, testMachineConfig(), NewColdArtifactCache())
			if err != nil {
				t.Fatal(err)
			}
			arts := NewArtifactCache()
			for _, pass := range []string{"cold", "warm"} {
				got, err := RunDataParallelExtraction(id, n, w, Optimized, testMachineConfig(), arts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, inline) {
					t.Errorf("%v/%d %s memo: %+v, inline %+v", id, n, pass, got, inline)
				}
			}
			if hits, misses := arts.KernelStats(); misses == 0 || hits != misses {
				t.Errorf("%v/%d: memo hits/misses %d/%d, want the warm pass to hit every cold miss", id, n, hits, misses)
			}
			if !inline.Matches {
				t.Errorf("%v/%d: merged feature does not match the reference", id, n)
			}
		}
	}
}

// TestKernelMemoColdCacheComputesInline checks that a cold cache shares
// artifacts but never consults the kernel memo.
func TestKernelMemoColdCacheComputesInline(t *testing.T) {
	cfg := PortedConfig{
		Workload:      testWorkload(1),
		Scenario:      SingleSPE,
		Variant:       Optimized,
		MachineConfig: testMachineConfig(),
		Artifacts:     NewColdArtifactCache(),
	}
	mustRun(t, cfg)
	if hits, misses := cfg.Artifacts.KernelStats(); hits != 0 || misses != 0 {
		t.Fatalf("cold cache kernel stats = (%d, %d), want (0, 0)", hits, misses)
	}
	if _, misses := cfg.Artifacts.Stats(); misses == 0 {
		t.Fatal("cold cache built no artifacts")
	}
}
