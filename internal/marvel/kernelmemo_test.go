package marvel

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cellport/internal/fault"
	"cellport/internal/img"
	"cellport/internal/ls"
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
// corrupted transfer: the corrupted band equals no cached frame's rows,
// so that invocation leaves the proof and folds inline over the
// corrupted bytes without a memo lookup, the MFC's latched error still
// trips supervision, and the fault report equals the cold-cache run's.
// Every other invocation of the run, the retried one included, proves its
// bands and hits.
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
	cleanHits, warmMisses := cfg.Artifacts.KernelStats()

	// SPE0 runs the histogram kernel; its first command fetches the
	// header and the third delivers a band of pixel rows.
	plan, err := fault.Parse("dma-corrupt:spe=0,n=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	memo := mustRun(t, cfg)
	hits, misses := cfg.Artifacts.KernelStats()

	cfg.Artifacts = NewColdArtifactCache()
	inline := mustRun(t, cfg)

	if !corruptFired(inline) || inline.Faults.Retries == 0 {
		t.Fatalf("corruption did not trip supervision: %+v", inline.Faults)
	}
	// The clean run's event loop hit once per invocation; the faulted run
	// adds one invocation per retry and takes the corrupted one away.
	if want := 2*cleanHits + uint64(inline.Faults.Retries) - 1; misses != warmMisses || hits != want {
		t.Fatalf("hits/misses %d/%d after the corrupted run, want %d/%d: the corrupted invocation looked the memo up", hits, misses, want, warmMisses)
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
// prove no band and fold inline.
func forgetFrames(arts *ArtifactCache) {
	arts.knownFr.mu.Lock()
	arts.knownFr.byGeom = nil
	arts.knownFr.mu.Unlock()
}

// TestKernelMemoUnprovenFoldsInline checks that a run which proves no
// band makes no memo lookup and gives the proven result. Each config runs
// first on a warm cache, where every kernel proves its bands, then with
// the frame registry emptied, where every kernel folds inline: that run
// must leave KernelStats() as the proven run left it, although every
// entry it would need is stored, and equal the proven run and the
// cold-cache run. Whole-frame OpRun plans come from every scenario ×
// variant (prefetch off, so only the kernels compute), OpRunPartial
// plans from the data-parallel path at one and three SPEs.
func TestKernelMemoUnprovenFoldsInline(t *testing.T) {
	check := func(t *testing.T, arts *ArtifactCache, run func(*ArtifactCache) any) {
		t.Helper()
		proven := run(arts)
		h0, m0 := arts.KernelStats()
		if m0 == 0 {
			t.Fatal("the proven run made no memo entry")
		}
		forgetFrames(arts)
		unproven := run(arts)
		if h, m := arts.KernelStats(); h != h0 || m != m0 {
			t.Fatalf("hits/misses went %d/%d -> %d/%d: a run that proved no band looked the memo up", h0, m0, h, m)
		}
		cold := run(NewColdArtifactCache())
		if !reflect.DeepEqual(unproven, proven) || !reflect.DeepEqual(unproven, cold) {
			t.Fatal("the inline run's result differs from the proven or the cold-cache run's")
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
				}
				arts := NewArtifactCache()
				for _, f := range arts.framesOf(cfg.Workload) {
					for _, id := range ExtractKernels {
						f.prefetched[v][id].Store(true)
					}
				}
				check(t, arts, func(a *ArtifactCache) any {
					c := cfg
					c.Artifacts = a
					return mustRun(t, c)
				})
			})
		}
	}
	w := testWorkload(1)
	for _, id := range ExtractKernels {
		for _, n := range []int{1, 3} {
			for _, v := range []Variant{Naive, Optimized} {
				t.Run(fmt.Sprintf("partial/%v/%d/%v", id, n, v), func(t *testing.T) {
					check(t, NewArtifactCache(), func(a *ArtifactCache) any {
						res, err := RunDataParallelExtraction(id, n, w, v, testMachineConfig(), a)
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

// partialPlan returns the slice plan kernel id's OpRunPartial over payload
// rows [y0, y1) of a w×h frame makes: the planner over the partition,
// against the local store planKernel leaves as the kernel sees it.
func partialPlan(t *testing.T, id KernelID, v Variant, w, h, y0, y1 int) []img.Slice {
	t.Helper()
	st := ls.New()
	defer st.Release()
	if _, err := planKernel(st, id, v, w, h); err != nil {
		t.Fatal(err)
	}
	k := kernelOf(id)
	plan, err := planRange(y0, y1, h, sliceBudget(st.Free(), id, v, w, img.StrideFor(w)), k.halo, k.granularity)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestKernelMemoKeyedByPlan checks that the memo keeps one entry per
// frame and slice plan. On one warm cache a 352x240 frame runs whole-frame
// Naive and then Optimized, and data-parallel OpRunPartial at one and
// three SPEs in both variants. The variants plan differently at that size
// (CH cuts 2 slices Naive and 3 Optimized), so a key naming a plan by its
// payload range alone would merge entries whose slices differ. Misses
// must equal the distinct (kernel, partial, plan) triples over the one
// frame, and every run must equal its cold-cache run.
func TestKernelMemoKeyedByPlan(t *testing.T) {
	w := Workload{Images: 1, W: 352, H: 240, Seed: 99}
	type use struct {
		id      KernelID
		partial bool
		plan    []img.Slice
	}
	var uses []use
	arts := NewArtifactCache()
	for _, v := range []Variant{Naive, Optimized} {
		cfg := PortedConfig{
			Workload:      w,
			Scenario:      SingleSPE,
			Variant:       v,
			MachineConfig: testMachineConfig(),
			Artifacts:     NewColdArtifactCache(),
		}
		want := mustRun(t, cfg)
		cfg.Artifacts = arts
		if got := mustRun(t, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: whole-frame run differs from the cold-cache run", v)
		}
		for _, id := range ExtractKernels {
			plan, err := ExecPlan(id, v, w.W, w.H)
			if err != nil {
				t.Fatal(err)
			}
			uses = append(uses, use{id, false, plan})
		}
	}
	for _, v := range []Variant{Naive, Optimized} {
		for _, n := range []int{1, 3} {
			for _, id := range ExtractKernels {
				want, err := RunDataParallelExtraction(id, n, w, v, testMachineConfig(), NewColdArtifactCache())
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunDataParallelExtraction(id, n, w, v, testMachineConfig(), arts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/%d/%v: partial run differs from the cold-cache run", id, n, v)
				}
				for _, b := range splitRows(w.H, n, kernelOf(id).granularity) {
					uses = append(uses, use{id, true, partialPlan(t, id, v, w.W, w.H, b[0], b[1])})
				}
			}
		}
	}
	type span struct {
		id      KernelID
		partial bool
		y0, y1  int
	}
	distinct, ranges := 0, map[span]bool{}
	for i, u := range uses {
		if !slices.ContainsFunc(uses[:i], func(d use) bool {
			return d.id == u.id && d.partial == u.partial && slices.Equal(d.plan, u.plan)
		}) {
			distinct++
		}
		ranges[span{u.id, u.partial, u.plan[0].Y0, u.plan[len(u.plan)-1].Y1}] = true
	}
	if len(ranges) == distinct {
		t.Fatal("no two plans share a payload range: the test cannot tell plans apart")
	}
	if _, misses := arts.KernelStats(); misses != uint64(distinct) {
		t.Fatalf("misses = %d, want %d (one per distinct frame and plan; %d distinct payload ranges)", misses, distinct, len(ranges))
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
// warm memo, must leave the proof: the invocation makes no memo lookup,
// folds inline over the bytes it was delivered, and the run equals the
// cold-cache run. The same holds, driving the kernel's run directly, for
// a frame that differs from a cached frame of the same geometry in one
// byte of its last band: every band before it is proven, the last one
// leaves the proof, the output is the inline one, and the memo is not
// consulted. The frame is 480 rows tall, so every plan has at least three
// bands.
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
				if _, m := c.Artifacts.KernelStats(); m != misses {
					t.Errorf("%s: misses %d, want %d (the corrupted invocation makes no lookup)", spec, m, misses)
				}
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
			if h, m := arts.KernelStats(); h != h0 || m != m0 {
				t.Errorf("%v/%v: hits/misses went %d/%d -> %d/%d, want no lookup", id, v, h0, m0, h, m)
			}
		}
	}
}

// TestKernelMemoHitAllocFree checks that a proven extraction answered by
// the memo allocates nothing: the frame match, the band comparisons, the
// key and the lookup.
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
