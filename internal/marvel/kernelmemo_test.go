package marvel

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cellport/internal/fault"
	"cellport/internal/img"
	"cellport/internal/mfc"
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

// forgetFrames empties arts' frame registry, so its extraction runs can
// prove no band and take the hashed path.
func forgetFrames(arts *ArtifactCache) {
	arts.knownFr.mu.Lock()
	arts.knownFr.byGeom = nil
	arts.knownFr.mu.Unlock()
}

// registerFrames puts frames back in arts' registry.
func registerFrames(arts *ArtifactCache, frames []*frame) {
	for _, f := range frames {
		arts.knownFr.add(f, len(frames))
	}
}

// TestKernelMemoProvenKeyEqualsHashed checks that a proven run's key is the
// key hashing the same bands gives. Each config runs first with the frame
// registry emptied, so every kernel hashes its bands, then with the frames
// registered again, so every kernel proves them: the second run must hit
// every entry the first stored and miss none, and only it may leave plan
// sums on the frames. Whole-frame OpRun plans come from every scenario ×
// variant (prefetch off, so only the kernels compute), OpRunPartial plans
// from the data-parallel path at one and three SPEs.
func TestKernelMemoProvenKeyEqualsHashed(t *testing.T) {
	twice := func(t *testing.T, arts *ArtifactCache, frames []*frame, run func() any) {
		t.Helper()
		forgetFrames(arts)
		hashed := run()
		h0, m0 := arts.KernelStats()
		for _, f := range frames {
			if len(f.sums) != 0 {
				t.Fatal("a run with no registered frame took a proven key")
			}
		}
		registerFrames(arts, frames)
		proven := run()
		h1, m1 := arts.KernelStats()
		if m0 == 0 || m1 != m0 || h1-h0 != h0+m0 {
			t.Fatalf("hits/misses %d/%d after the hashed run, %d/%d after the proven one: proven keys differ from hashed ones", h0, m0, h1, m1)
		}
		for _, f := range frames {
			if len(f.sums) == 0 {
				t.Fatal("the registered run proved no band")
			}
		}
		if !reflect.DeepEqual(hashed, proven) {
			t.Fatal("the proven run's result differs from the hashed run's")
		}
	}
	for _, scen := range []Scenario{SingleSPE, MultiSPE, MultiSPE2, Pipelined} {
		for _, v := range []Variant{Naive, Optimized} {
			t.Run(fmt.Sprintf("%v/%v", scen, v), func(t *testing.T) {
				cfg := PortedConfig{
					Workload:      testWorkload(2),
					Scenario:      scen,
					Variant:       v,
					MachineConfig: testMachineConfig(),
					Artifacts:     NewArtifactCache(),
				}
				frames := cfg.Artifacts.framesOf(cfg.Workload)
				for _, f := range frames {
					for _, id := range ExtractKernels {
						f.prefetched[v][id].Store(true)
					}
				}
				twice(t, cfg.Artifacts, frames, func() any { return mustRun(t, cfg) })
			})
		}
	}
	w := testWorkload(1)
	for _, id := range ExtractKernels {
		for _, n := range []int{1, 3} {
			for _, v := range []Variant{Naive, Optimized} {
				t.Run(fmt.Sprintf("partial/%v/%d/%v", id, n, v), func(t *testing.T) {
					arts := NewArtifactCache()
					twice(t, arts, arts.framesOf(w), func() any {
						res, err := RunDataParallelExtraction(id, n, w, v, testMachineConfig(), arts)
						if err != nil {
							t.Fatal(err)
						}
						return res
					})
				})
			}
		}
	}
}

// bandCommand returns the 1-based number of the DMA command that delivers
// the first rows of band i in kernel id's first whole-frame invocation on
// an SPE: the header is command 1, then each band takes one list command
// (Optimized) or one command per MaxTransfer of rows (Naive).
func bandCommand(t *testing.T, id KernelID, v Variant, w Workload, i int) uint64 {
	t.Helper()
	plan, err := ExecPlan(id, v, w.W, w.H)
	if err != nil {
		t.Fatal(err)
	}
	stride := img.StrideFor(w.W)
	n := uint64(2)
	for _, s := range plan[:i] {
		if v == Optimized {
			n++
			continue
		}
		per := mfc.MaxTransfer / stride
		n += uint64((s.TransferRows() + per - 1) / per)
	}
	return n
}

// TestKernelMemoCorruptBandFallsBack checks that a proven run cannot
// mask a band that is not its frame's. A dma-corrupt of the first, a
// middle or the last band of SingleSPE's first histogram invocation, on a
// warm memo, must leave the proof: the invocation misses, recomputes from
// the bytes it was delivered, and the run equals the cold-cache run. The
// same holds, driving the kernel's run directly, for a frame that differs
// from a cached frame of the same geometry in one byte of its last band:
// every band before it is proven, the last one leaves the proof, and the
// output is the inline one. The frame is 480 rows tall, so every plan has
// at least three bands.
func TestKernelMemoCorruptBandFallsBack(t *testing.T) {
	w := Workload{Images: 1, W: 352, H: 480, Seed: 99}
	for _, v := range []Variant{Naive, Optimized} {
		plan, err := ExecPlan(KCH, v, w.W, w.H)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan) < 3 {
			t.Fatalf("%v: %d bands, want a first, a middle and a last", v, len(plan))
		}
		cfg := PortedConfig{
			Workload:      w,
			Scenario:      SingleSPE,
			Variant:       v,
			Validate:      true,
			MachineConfig: testMachineConfig(),
			Artifacts:     NewArtifactCache(),
		}
		mustRun(t, cfg)
		_, misses := cfg.Artifacts.KernelStats()
		for _, band := range []int{0, len(plan) / 2, len(plan) - 1} {
			t.Run(fmt.Sprintf("%v/band%d", v, band), func(t *testing.T) {
				spec := fmt.Sprintf("dma-corrupt:spe=0,n=%d", bandCommand(t, KCH, v, w, band))
				p, err := fault.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				c := cfg
				c.Faults = p
				memo := mustRun(t, c)
				_, m := c.Artifacts.KernelStats()
				if m != misses+1 {
					t.Errorf("%s: misses %d, want %d (the corrupted invocation only)", spec, m, misses+1)
				}
				misses = m
				c.Artifacts = NewColdArtifactCache()
				inline := mustRun(t, c)
				if !corruptFired(inline) {
					t.Fatalf("%s corrupted no transfer", spec)
				}
				if !reflect.DeepEqual(memo, inline) {
					t.Fatalf("%s: run differs from the cold-cache run:\n got %+v\nwant %+v", spec, memo, inline)
				}
			})
		}
	}

	arts := NewArtifactCache()
	f := arts.framesOf(w)[0]
	pix := slices.Clone(f.im.Pix)
	pix[(w.H-1)*f.im.Stride] ^= 1 // the last row, which only the last band transfers
	other := &frame{im: &img.RGB{W: w.W, H: w.H, Stride: f.im.Stride, Pix: pix}}
	for _, id := range ExtractKernels {
		for _, v := range []Variant{Naive, Optimized} {
			plan, err := ExecPlan(id, v, w.W, w.H)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := frameRun(arts, id, f, plan).output(); err != nil {
				t.Fatal(err)
			}
			h0, m0 := arts.KernelStats()
			var r kernelRun
			r.start(arts, id, false, w.W, w.H, f.im.Stride, plan)
			for i, s := range plan {
				if i == len(plan)-1 && r.frame != f {
					t.Fatalf("%v/%v: bands before the last were not proven on the cached frame", id, v)
				}
				r.add(slices.Clone(other.rows(s)))
			}
			if r.frame != nil {
				t.Fatalf("%v/%v: a differing last band kept the proof", id, v)
			}
			got, err := r.output()
			if err != nil {
				t.Fatal(err)
			}
			var inline kernelRun
			inline.start(NewColdArtifactCache(), id, false, w.W, w.H, f.im.Stride, plan)
			for _, s := range plan {
				inline.add(other.rows(s))
			}
			want, err := inline.output()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v/%v: output differs from the inline one", id, v)
			}
			if h, m := arts.KernelStats(); h != h0 || m != m0+1 {
				t.Errorf("%v/%v: hits/misses went %d/%d -> %d/%d, want one miss", id, v, h0, m0, h, m)
			}
		}
	}
}

// TestKernelMemoHitAllocFree checks that a proven extraction answered by
// the memo allocates nothing: the frame match, the band comparisons, the
// plan sum and the lookup.
func TestKernelMemoHitAllocFree(t *testing.T) {
	w := testWorkload(1)
	arts := NewArtifactCache()
	f := arts.framesOf(w)[0]
	// The local store's copy of the frame, so no band aliases it.
	pix := slices.Clone(f.im.Pix)
	for _, id := range ExtractKernels {
		plan, err := ExecPlan(id, Optimized, w.W, w.H)
		if err != nil {
			t.Fatal(err)
		}
		extract := func() kernelOut {
			var r kernelRun
			r.start(arts, id, false, w.W, w.H, f.im.Stride, plan)
			for _, s := range plan {
				r.add(pix[s.TransferY0()*f.im.Stride : s.TransferY1()*f.im.Stride])
			}
			out, err := r.output()
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		if got, want := extract().vec, f.feature(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: feature %v, reference %v", id, got, want)
		}
		h0, m0 := arts.KernelStats()
		if allocs := testing.AllocsPerRun(100, func() { extract() }); allocs != 0 {
			t.Fatalf("%v: a memo hit allocates %.1f objects", id, allocs)
		}
		if h, m := arts.KernelStats(); m != m0 || h == h0 {
			t.Fatalf("%v: hits/misses went %d/%d -> %d/%d, want hits only", id, h0, m0, h, m)
		}
	}
}

// TestKernelMemoConcurrentWarm runs validated ported runs of every
// scenario × variant and two workload seeds concurrently on one shared
// cache, twice (run it under -race): the first pass proves and prefetches
// beside other runs' kernels, the second hits. Each run must equal its
// cold-cache run.
func TestKernelMemoConcurrentWarm(t *testing.T) {
	type point struct {
		cfg  PortedConfig
		want *PortedResult
	}
	var points []point
	for _, seed := range []uint64{99, 100} {
		for _, scen := range []Scenario{SingleSPE, MultiSPE, MultiSPE2, Pipelined} {
			for _, v := range []Variant{Naive, Optimized} {
				cfg := PortedConfig{
					Workload:      Workload{Images: 2, W: 352, H: 96, Seed: seed},
					Scenario:      scen,
					Variant:       v,
					Validate:      true,
					MachineConfig: testMachineConfig(),
					Artifacts:     NewColdArtifactCache(),
				}
				points = append(points, point{cfg, mustRun(t, cfg)})
			}
		}
	}
	shared := NewArtifactCache()
	var misses uint64
	for pass := range 2 {
		var wg sync.WaitGroup
		errs := make([]error, len(points))
		for i, p := range points {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := p.cfg
				cfg.Artifacts = shared
				got, err := RunPorted(cfg)
				switch {
				case err != nil:
					errs[i] = err
				case !reflect.DeepEqual(got, p.want):
					errs[i] = fmt.Errorf("%v/%v seed %d pass %d differs from the cold-cache run", cfg.Scenario, cfg.Variant, cfg.Workload.Seed, pass)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
		_, m := shared.KernelStats()
		if pass == 1 && m != misses {
			t.Errorf("the warm pass missed %d times", m-misses)
		}
		misses = m
	}
}
