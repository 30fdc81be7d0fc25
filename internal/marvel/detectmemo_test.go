package marvel

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cellport/internal/cell"
	"cellport/internal/core"
	"cellport/internal/fault"
)

// TestDetectMemoMatchesInline checks that the detection memo is invisible
// in every result: a cold-cache run (every decision evaluated inline), a
// fresh-cache run (each decision computed once from the known model) and a
// warm run (every decision a lookup) of the same config produce deeply
// equal PortedResults for every scenario × variant, with and without a
// seeded plan that corrupts a DMA. The warm run of a second workload seed,
// with the same models, must miss on its new features.
func TestDetectMemoMatchesInline(t *testing.T) {
	for _, scen := range []Scenario{SingleSPE, MultiSPE, MultiSPE2, Pipelined} {
		for _, v := range []Variant{Naive, Optimized} {
			for _, plan := range []*fault.Plan{nil, memoPlan()} {
				t.Run(fmt.Sprintf("%v/%v/faults=%v", scen, v, plan != nil), func(t *testing.T) {
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
					if h, m := cfg.Artifacts.DetectStats(); h != 0 || m != 0 {
						t.Fatalf("cold cache detection stats = (%d, %d), want (0, 0)", h, m)
					}

					cfg.Artifacts = NewArtifactCache()
					fresh := mustRun(t, cfg)
					_, freshMisses := cfg.Artifacts.DetectStats()
					warm := mustRun(t, cfg)
					hits, misses := cfg.Artifacts.DetectStats()
					if freshMisses == 0 || misses != freshMisses || hits == 0 {
						t.Fatalf("detection hits/misses %d/%d after the warm run (fresh misses %d), want the warm run all hits", hits, misses, freshMisses)
					}
					for _, got := range []struct {
						label string
						res   *PortedResult
					}{{"fresh", fresh}, {"warm", warm}} {
						if !reflect.DeepEqual(got.res, inline) {
							t.Errorf("%s result differs from the inline run:\n got %+v\nwant %+v", got.label, got.res, inline)
						}
					}
					if inline.ValidationErrors != 0 {
						t.Errorf("%d validation errors", inline.ValidationErrors)
					}
				})
			}
		}
	}
}

// TestDetectMemoDMACorruptChunk corrupts one support-vector chunk of a
// warm run's first detection. The corrupted invocation must fold inline
// (no memo lookup) and the run must equal the cold-cache run, fault report
// included; the supervisor's retry is the one lookup left for it.
func TestDetectMemoDMACorruptChunk(t *testing.T) {
	// SingleSPE runs its one detector on SPE4, CH first. Each invocation
	// fetches its header (command 1), the feature (2), the model header
	// (3) and the coefficients (4), then the support-vector chunks: 5 is
	// chunk 0, 7 is chunk 2 (of 8), so the inline fold re-folds a prefix.
	for _, n := range []int{5, 7} {
		for _, v := range []Variant{Naive, Optimized} {
			t.Run(fmt.Sprintf("n=%d/%v", n, v), func(t *testing.T) {
				cfg := PortedConfig{
					Workload:      testWorkload(1),
					Scenario:      SingleSPE,
					Variant:       v,
					Validate:      true,
					MachineConfig: testMachineConfig(),
					Artifacts:     NewArtifactCache(),
				}
				mustRun(t, cfg)
				h0, m0 := cfg.Artifacts.DetectStats()

				plan, err := fault.Parse(fmt.Sprintf("dma-corrupt:spe=4,n=%d", n))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = plan
				memo := mustRun(t, cfg)
				h1, m1 := cfg.Artifacts.DetectStats()

				cfg.Artifacts = NewColdArtifactCache()
				inline := mustRun(t, cfg)
				if !corruptFired(inline) || inline.Faults.Retries == 0 {
					t.Fatalf("corruption did not trip supervision: %+v", inline.Faults)
				}
				if !reflect.DeepEqual(memo, inline) {
					t.Fatalf("corrupted warm run differs from the cold-cache run:\n got %+v\nwant %+v", memo, inline)
				}
				// The clean run looked up each of its detections once; the
				// corrupted run adds its retry, all hits.
				if m1 != m0 || h1-h0 != h0+m0 {
					t.Fatalf("corrupted run: detection hits +%d, misses +%d, want +%d and +0 (the corrupted chunk must not reach the memo)", h1-h0, m1-m0, h0+m0)
				}
			})
		}
	}
}

// detectCase is one kernel-level detection scenario: a placed model,
// changed in main memory by mutate before the kernel streams it.
type detectCase struct {
	name   string
	mutate func(model []byte, pm *PlacedModel)
}

// detectCases returns the unchanged model and changes to its header, a
// coefficient, and the first, a middle and the last support-vector chunk.
func detectCases() []detectCase {
	// setRow overwrites support vector r with a valid, different vector.
	setRow := func(model []byte, pm *PlacedModel, r int) {
		row := make([]float32, pm.Dim)
		for i := range row {
			row[i] = 1 / float32(pm.Dim)
		}
		core.PutFloat32s(model[int(pm.svOff)+r*pm.Dim*4:], row)
	}
	chunkRow := func(pm *PlacedModel, chunk int) int {
		return min(chunk*svChunkRows(pm.Dim)+1, pm.NumSV-1)
	}
	return []detectCase{
		{"clean", func([]byte, *PlacedModel) {}},
		{"bias", func(model []byte, _ *PlacedModel) { core.PutFloat32s(model[8:], []float32{0.75}) }},
		{"coefficient", func(model []byte, _ *PlacedModel) { core.PutFloat32s(model[hdrBytes+4:], []float32{3}) }},
		{"first-chunk", func(model []byte, pm *PlacedModel) { setRow(model, pm, 0) }},
		{"middle-chunk", func(model []byte, pm *PlacedModel) {
			setRow(model, pm, chunkRow(pm, (pm.NumSV/svChunkRows(pm.Dim))/2))
		}},
		{"last-chunk", func(model []byte, pm *PlacedModel) { setRow(model, pm, pm.NumSV-1) }},
	}
}

// detectFeatures returns two distinct valid features of dimension dim.
func detectFeatures(dim int) [][]float32 {
	out := make([][]float32, 2)
	for k := range out {
		f := make([]float32, dim)
		for i := range f {
			f[i] = float32((i*(k+3))%7+1) / float32(4*dim)
		}
		out[k] = f
	}
	return out
}

// runDetections places model slot of ms, lets mutate change its bytes,
// and runs the detection kernel under memo over each feature in turn,
// returning each invocation's score and class words.
func runDetections(t *testing.T, memo *ArtifactCache, v Variant, ms *ModelSet, slot int, mutate func([]byte, *PlacedModel), feats [][]float32) [][2]uint32 {
	t.Helper()
	cfg := cell.DefaultConfig()
	cfg.MemorySize = 32 << 20
	m := cell.New(cfg)
	defer m.Release()
	var out [][2]uint32
	_, err := m.RunMain("detect", func(ctx *cell.Context) {
		mem := ctx.Memory()
		pm, err := PlaceModel(mem, ms, slot)
		if err != nil {
			t.Error(err)
			return
		}
		mutate(mem.Bytes(pm.EA, pm.Bytes()), pm)
		iface, err := core.Open(ctx, 0, DetectKernelSpec(v, memo))
		if err != nil {
			t.Error(err)
			return
		}
		w, err := core.NewWrapper(mem, detectFields(pm.Dim)...)
		if err != nil {
			t.Error(err)
			return
		}
		fillDetectHeader(w, pm.Dim, pm.NumSV, pm.EA, 0)
		for _, f := range feats {
			w.SetFloat32s("feature", f)
			if res, err := iface.SendAndWait(OpRun, w.Addr()); err != nil || res != resOK {
				t.Errorf("detection: res=%#x err=%v", res, err)
				return
			}
			sb := w.Bytes("score")
			out = append(out, [2]uint32{core.ByteOrder.Uint32(sb), core.ByteOrder.Uint32(sb[4:])})
		}
		if err := iface.Close(); err != nil {
			t.Error(err)
		}
		if err := w.Free(); err != nil {
			t.Error(err)
		}
		if err := pm.Free(mem); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDetectMemoKernelExact drives the detection kernel directly over a
// known model changed in main memory: in its header, a coefficient, or
// one support-vector row of the first, a middle or the last chunk. On a
// warm cache, each change must give the cold kernel's score bits for both
// of two distinct features, in both variants, and each change must move
// the cold score, so the comparison shows something.
func TestDetectMemoKernelExact(t *testing.T) {
	arts := NewArtifactCache()
	ms, err := arts.ModelSet(5)
	if err != nil {
		t.Fatal(err)
	}
	for slot := range ms.slots {
		dim := ms.slots[slot].model.Dim()
		feats := detectFeatures(dim)
		for _, v := range []Variant{Naive, Optimized} {
			clean := runDetections(t, NewColdArtifactCache(), v, ms, slot, func([]byte, *PlacedModel) {}, feats)
			if clean[0] == clean[1] {
				t.Fatalf("slot %d: the two features score alike; the key check proves nothing", slot)
			}
			for _, c := range detectCases() {
				want := runDetections(t, NewColdArtifactCache(), v, ms, slot, c.mutate, feats)
				if c.name != "clean" && reflect.DeepEqual(want, clean) {
					t.Fatalf("slot %d %v %s: the change does not move the score", slot, v, c.name)
				}
				for pass := range 2 {
					if got := runDetections(t, arts, v, ms, slot, c.mutate, feats); !reflect.DeepEqual(got, want) {
						t.Errorf("slot %d %v %s pass %d: warm scores %x, cold %x", slot, v, c.name, pass, got, want)
					}
				}
			}
		}
	}
	if hits, misses := arts.DetectStats(); misses != uint64(2*len(ms.slots)) || hits == 0 {
		t.Errorf("detection hits/misses %d/%d, want one miss per slot and feature", hits, misses)
	}
}

// TestDetectMemoNilIsShared checks that a detection kernel built with a
// nil cache uses SharedArtifacts(): it recognizes the shared cache's
// models and looks its decisions up there.
func TestDetectMemoNilIsShared(t *testing.T) {
	shared := SharedArtifacts()
	ms, err := shared.ModelSet(5)
	if err != nil {
		t.Fatal(err)
	}
	h0, m0 := shared.DetectStats()
	runDetections(t, nil, Optimized, ms, 0, func([]byte, *PlacedModel) {}, detectFeatures(ms.slots[0].model.Dim()))
	if h, m := shared.DetectStats(); h+m != h0+m0+2 {
		t.Fatalf("shared detection lookups went from %d to %d, want 2 more", h0+m0, h+m)
	}
}

// TestDetectMemoHitAllocFree checks that a detection answered by the memo
// allocates nothing: the model match, the chunk comparisons, the feature
// sums and the lookup.
func TestDetectMemoHitAllocFree(t *testing.T) {
	arts := NewArtifactCache()
	ms, err := arts.ModelSet(5)
	if err != nil {
		t.Fatal(err)
	}
	enc := ms.slots[0].enc
	m := ms.slots[0].model
	n, dim := len(m.SupportVectors), m.Dim()
	var mh [hdrBytes / 4]float32
	core.DecodeFloat32s(mh[:], enc[:hdrBytes])
	feat := make([]byte, 4*dim)
	core.PutFloat32s(feat, detectFeatures(dim)[0])
	// The local store's copy of the model, so nothing aliases the known
	// encoding.
	model := append([]byte(nil), enc...)
	rows := svChunkRows(dim)
	detect := func() float64 {
		var r detectRun
		r.start(arts, mh, model[:hdrBytes], model[hdrBytes:hdrBytes+4*n], feat, dim, n, rows)
		defer r.release()
		for i := 0; i*rows < n; i++ {
			base := i * rows
			off := hdrBytes + 4*n + 4*dim*base
			r.add(i, model[off:off+4*dim*min(rows, n-base)])
		}
		d, err := r.decision()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if d := detect(); d != m.Decision(detectFeatures(dim)[0]) {
		t.Fatalf("decision %v, reference %v", d, m.Decision(detectFeatures(dim)[0]))
	}
	if allocs := testing.AllocsPerRun(100, func() { detect() }); allocs != 0 {
		t.Fatalf("a memo hit allocates %.1f objects", allocs)
	}
}

// TestDetectMemoConcurrentWarm runs warm ported runs of every scenario ×
// variant and two workload seeds concurrently on one shared cache (run it
// under -race); each must equal its cold-cache run.
func TestDetectMemoConcurrentWarm(t *testing.T) {
	type point struct {
		cfg  PortedConfig
		want *PortedResult
	}
	var points []point
	for _, seed := range []uint64{99, 100} {
		for _, scen := range []Scenario{SingleSPE, MultiSPE, MultiSPE2, Pipelined} {
			for _, v := range []Variant{Naive, Optimized} {
				cfg := PortedConfig{
					Workload:      Workload{Images: 1, W: 352, H: 96, Seed: seed},
					Scenario:      scen,
					Variant:       v,
					MachineConfig: testMachineConfig(),
					Artifacts:     NewColdArtifactCache(),
				}
				points = append(points, point{cfg, mustRun(t, cfg)})
			}
		}
	}
	shared := NewArtifactCache()
	for pass := range 2 { // the first pass fills the memo, the second hits
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
	}
	if hits, misses := shared.DetectStats(); hits == 0 || misses == 0 {
		t.Fatalf("detection hits/misses %d/%d, want both", hits, misses)
	}
}

// TestSPUTimeIgnoresContent states DESIGN.md §2's claim the kernel memo
// rests on: SPU time depends on dimensions, not values. Two workload seeds
// (different frames, different model sets) must give identical virtual
// times, event counts and kernel times for every scenario × variant,
// while their features and detection scores differ.
func TestSPUTimeIgnoresContent(t *testing.T) {
	for _, scen := range []Scenario{SingleSPE, MultiSPE, MultiSPE2, Pipelined} {
		for _, v := range []Variant{Naive, Optimized} {
			var res [2]*PortedResult
			for i, seed := range []uint64{99, 20070710} {
				w := testWorkload(2)
				w.Seed = seed
				res[i] = mustRun(t, PortedConfig{
					Workload:      w,
					Scenario:      scen,
					Variant:       v,
					Validate:      true,
					MachineConfig: testMachineConfig(),
					Artifacts:     NewArtifactCache(),
				})
			}
			a, b := res[0], res[1]
			name := fmt.Sprintf("%v/%v", scen, v)
			if a.Total != b.Total || a.OneTime != b.OneTime || a.PerImage != b.PerImage {
				t.Errorf("%s: virtual times %v/%v/%v vs %v/%v/%v", name, a.Total, a.OneTime, a.PerImage, b.Total, b.OneTime, b.PerImage)
			}
			if a.EventCount != b.EventCount {
				t.Errorf("%s: EventCount %d vs %d", name, a.EventCount, b.EventCount)
			}
			if !reflect.DeepEqual(a.KernelTime, b.KernelTime) || !reflect.DeepEqual(a.SPEBusy, b.SPEBusy) {
				t.Errorf("%s: KernelTime %v vs %v, SPEBusy %v vs %v", name, a.KernelTime, b.KernelTime, a.SPEBusy, b.SPEBusy)
			}
			for n := range a.Images {
				ia, ib := &a.Images[n], &b.Images[n]
				for _, id := range ExtractKernels {
					if reflect.DeepEqual(*kernelOf(id).feature(ia), *kernelOf(id).feature(ib)) {
						t.Errorf("%s image %d: %v features equal across seeds; the check proves nothing", name, n, id)
					}
				}
				for s := range ia.Scores {
					if ia.Scores[s] == ib.Scores[s] {
						t.Errorf("%s image %d: score %d equal across seeds", name, n, s)
					}
				}
			}
			if a.ValidationErrors+b.ValidationErrors != 0 {
				t.Errorf("%s: validation errors %d, %d", name, a.ValidationErrors, b.ValidationErrors)
			}
		}
	}
}

// BenchmarkVerifyDispatchWarm prices one warm verified-serve dispatch
// check: a RunPorted of a 3-image 352×96 batch under MultiSPE2, Optimized,
// on a cache that already holds its frames, models, kernel outputs and
// decisions.
func BenchmarkVerifyDispatchWarm(b *testing.B) {
	cfg := PortedConfig{
		Workload:  Workload{Images: 3, W: 352, H: 96, Seed: 20070710},
		Scenario:  MultiSPE2,
		Variant:   Optimized,
		Artifacts: NewArtifactCache(),
	}
	if _, err := RunPorted(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := RunPorted(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
