package marvel

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"cellport/internal/cost"
)

// TestArtifactCacheSharesPointers: the frame layer is per frame, so at
// each geometry batch k+1 reuses the pointers of batch k's frames
// 0..k-1; the model set is one pointer per seed; and references under
// different hosts fold over the same feature vectors.
func TestArtifactCacheSharesPointers(t *testing.T) {
	c := NewArtifactCache()
	grid := frameGrid() // batches 1..4 at H=240, then at H=480
	for j := 0; j+1 < len(grid); j++ {
		wa, wb := grid[j], grid[j+1]
		if wa.H != wb.H {
			continue
		}
		a, b := c.Images(wa), c.Images(wb)
		if len(a) != wa.Images || len(b) != wb.Images {
			t.Fatalf("H=%d: got %d and %d frames for batches %d and %d", wa.H, len(a), len(b), wa.Images, wb.Images)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("H=%d: frame %d of batch %d not shared with batch %d", wa.H, i, wa.Images, wb.Images)
			}
		}
	}
	if c.Images(grid[0])[0] == c.Images(grid[len(grid)-1])[0] {
		t.Fatal("frames of different geometries must be distinct")
	}

	w := testWorkload(2)
	ma, err := c.ModelSet(w.Seed)
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := c.ModelSet(w.Seed)
	if ma != mb {
		t.Fatal("ModelSet not shared across lookups")
	}
	ra, err := c.Reference(cost.NewPPE(), w)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := c.Reference(cost.NewDesktop(), w)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Host == ra.Host || rd.Total == ra.Total {
		t.Fatal("Desktop reference must be distinct from the PPE one")
	}
	for i := range ra.Images {
		a, d := &ra.Images[i], &rd.Images[i]
		if &a.CH[0] != &d.CH[0] || &a.CC[0] != &d.CC[0] || &a.TX[0] != &d.TX[0] || &a.EH[0] != &d.EH[0] {
			t.Fatalf("frame %d: hosts must share one host-feature extraction", i)
		}
	}
}

// TestArtifactCacheImagesComputeNoFeatures: Images, and a ported run
// without Validate, synthesize frames but extract no host features; the
// first Reference extracts each frame's features.
func TestArtifactCacheImagesComputeNoFeatures(t *testing.T) {
	c := NewArtifactCache()
	w := testWorkload(2)
	extracted := func() (n int) {
		for i := 0; i < w.Images; i++ {
			if c.frame(w, i).host[KCH].ready.Load() {
				n++
			}
		}
		return n
	}
	c.Images(w)
	if n := extracted(); n != 0 {
		t.Fatalf("Images extracted host features of %d frames, want 0", n)
	}
	if _, err := RunPorted(PortedConfig{
		Workload:      w,
		Scenario:      SingleSPE,
		Variant:       Optimized,
		MachineConfig: testMachineConfig(),
		Artifacts:     c,
	}); err != nil {
		t.Fatal(err)
	}
	if n := extracted(); n != 0 {
		t.Fatalf("RunPorted without Validate extracted host features of %d frames, want 0", n)
	}
	if _, err := c.Reference(cost.NewPPE(), w); err != nil {
		t.Fatal(err)
	}
	if n := extracted(); n != w.Images {
		t.Fatalf("Reference extracted host features of %d frames, want %d", n, w.Images)
	}
}

func TestArtifactCacheNilIsColdPath(t *testing.T) {
	var c *ArtifactCache
	w := testWorkload(1)
	if a, b := c.Images(w), c.Images(w); a[0] == b[0] {
		t.Fatal("nil cache must regenerate images per call")
	}
	ref, err := c.Reference(cost.NewPPE(), w)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Host != "PPE" || len(ref.Images) != 1 {
		t.Fatalf("nil-cache reference malformed: host %q, %d images", ref.Host, len(ref.Images))
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("nil cache stats = %d/%d, want 0/0", h, m)
	}
	c.Flush() // must not panic
}

// TestArtifactCacheMatchesUncached is the tentpole identity check on the
// artifact layer itself: cached artifacts must be bit-identical to ones
// computed cold.
func TestArtifactCacheMatchesUncached(t *testing.T) {
	w := testWorkload(2)
	c := NewArtifactCache()

	cached, err := c.Reference(cost.NewPPE(), w)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewModelSet(w.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cold := RunReference(cost.NewPPE(), w, ms)
	if cached.Total != cold.Total || cached.OneTime != cold.OneTime || cached.PerImage != cold.PerImage {
		t.Fatalf("cached reference timing differs: %+v vs %+v", cached.Total, cold.Total)
	}
	if len(cached.Images) != len(cold.Images) {
		t.Fatalf("image counts differ: %d vs %d", len(cached.Images), len(cold.Images))
	}
	for i := range cached.Images {
		a, b := &cold.Images[i], &cached.Images[i]
		if !reflect.DeepEqual(a.CH, b.CH) || !reflect.DeepEqual(a.CC, b.CC) ||
			!reflect.DeepEqual(a.EH, b.EH) || !reflect.DeepEqual(a.TX, b.TX) ||
			a.Scores != b.Scores {
			t.Fatalf("image %d outputs differ between cached and cold reference", i)
		}
	}
}

func TestArtifactCacheConcurrentReference(t *testing.T) {
	c := NewArtifactCache()
	w := testWorkload(1)
	const workers = 8
	refs := make([]*ReferenceResult, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Reference(cost.NewPPE(), w)
			if err != nil {
				t.Error(err)
			}
			refs[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if f := sameReference(refs[i], refs[0]); f != "" {
			t.Fatalf("concurrent Reference callers differ in %s", f)
		}
		if &refs[i].Images[0].CH[0] != &refs[0].Images[0].CH[0] {
			t.Fatal("concurrent Reference callers must share one host-feature extraction")
		}
	}
	// One miss per layer (the model set and the workload's one frame);
	// everything else is hits.
	if _, misses := c.Stats(); misses != 2 {
		t.Fatalf("misses = %d, want 2 (one per artifact layer)", misses)
	}
}

func TestRunPortedEmptyWorkload(t *testing.T) {
	_, err := RunPorted(PortedConfig{
		Workload:      Workload{Images: 0, W: 352, H: 96, Seed: 1},
		Scenario:      SingleSPE,
		Variant:       Optimized,
		MachineConfig: testMachineConfig(),
	})
	if !errors.Is(err, ErrEmptyWorkload) {
		t.Fatalf("err = %v, want ErrEmptyWorkload", err)
	}
	_, err = RunPorted(PortedConfig{
		Workload:      Workload{Images: -1, W: 352, H: 96, Seed: 1},
		Scenario:      Pipelined,
		MachineConfig: testMachineConfig(),
	})
	if !errors.Is(err, ErrEmptyWorkload) {
		t.Fatalf("negative image count: err = %v, want ErrEmptyWorkload", err)
	}
}

// TestRunPortedBadFrame: a frame without pixels is an error, not a panic
// in the image allocator.
func TestRunPortedBadFrame(t *testing.T) {
	for _, dims := range [][2]int{{0, 240}, {-5, 240}, {352, 0}, {352, -1}} {
		w := Workload{Images: 1, W: dims[0], H: dims[1], Seed: 1}
		_, err := RunPorted(PortedConfig{
			Workload:      w,
			Scenario:      SingleSPE,
			Variant:       Optimized,
			MachineConfig: testMachineConfig(),
		})
		if err == nil || errors.Is(err, ErrEmptyWorkload) {
			t.Errorf("%dx%d frame: err = %v, want an invalid-frame error", w.W, w.H, err)
		}
	}
}

// TestPortedCacheOnOffIdentical asserts the acceptance criterion: a run
// through the shared-artifact path and a cold NoCache run produce
// byte-identical feature outputs, identical virtual times, and the same
// EventCount replay fingerprint.
func TestPortedCacheOnOffIdentical(t *testing.T) {
	for _, scen := range []Scenario{SingleSPE, MultiSPE2, Pipelined} {
		base := PortedConfig{
			Workload:      testWorkload(2),
			Scenario:      scen,
			Variant:       Optimized,
			Validate:      true,
			MachineConfig: testMachineConfig(),
		}
		warm := base
		warm.Artifacts = NewArtifactCache()
		cold := base
		cold.NoCache = true

		a, err := RunPorted(warm)
		if err != nil {
			t.Fatalf("%v cached: %v", scen, err)
		}
		// Second cached run actually exercises the hit path.
		a2, err := RunPorted(warm)
		if err != nil {
			t.Fatalf("%v cached(2): %v", scen, err)
		}
		b, err := RunPorted(cold)
		if err != nil {
			t.Fatalf("%v nocache: %v", scen, err)
		}
		for _, got := range []*PortedResult{a2, b} {
			if got.Total != a.Total || got.OneTime != a.OneTime || got.PerImage != a.PerImage {
				t.Fatalf("%v: virtual times differ cache-on vs cache-off", scen)
			}
			if got.EventCount != a.EventCount {
				t.Fatalf("%v: EventCount %d vs %d — replay fingerprint changed", scen, got.EventCount, a.EventCount)
			}
			if got.ValidationErrors != 0 || a.ValidationErrors != 0 {
				t.Fatalf("%v: validation errors (%d, %d)", scen, a.ValidationErrors, got.ValidationErrors)
			}
			if len(got.Images) != len(a.Images) {
				t.Fatalf("%v: image result counts differ", scen)
			}
			for i := range a.Images {
				if CompareImageResults(&a.Images[i], &got.Images[i]) != 0 {
					t.Fatalf("%v image %d: feature outputs differ cache-on vs cache-off", scen, i)
				}
			}
		}
		// One miss for the model set, plus one per frame.
		if hits, misses := warm.Artifacts.Stats(); hits == 0 || misses != 1+uint64(base.Workload.Images) {
			t.Fatalf("%v: cache stats %d hits / %d misses — second run did not hit", scen, hits, misses)
		}
	}
}

// frameGrid is the batch grid the per-frame layer is built for: batches
// 1..4 at the single- and double-height geometries, as a calibration
// measures them.
func frameGrid() []Workload {
	var ws []Workload
	for _, h := range []int{240, 480} {
		for k := 1; k <= 4; k++ {
			ws = append(ws, Workload{Images: k, W: 352, H: h, Seed: 20070710})
		}
	}
	return ws
}

// sameReference reports the first field in which got differs from want.
func sameReference(got, want *ReferenceResult) string {
	switch {
	case got.Host != want.Host:
		return "Host"
	case got.Total != want.Total:
		return "Total"
	case got.OneTime != want.OneTime:
		return "OneTime"
	case got.PreprocessPerImage != want.PreprocessPerImage:
		return "PreprocessPerImage"
	case !reflect.DeepEqual(got.KernelTime, want.KernelTime):
		return "KernelTime"
	case got.PerImage != want.PerImage:
		return "PerImage"
	case !reflect.DeepEqual(got.Images, want.Images):
		return "Images"
	case got.Profile.Report() != want.Profile.Report():
		return "Profile.Report"
	case !reflect.DeepEqual(got.Profile.Flat(), want.Profile.Flat()):
		return "Profile.Flat"
	case !reflect.DeepEqual(got.Profile.Edges(), want.Profile.Edges()):
		return "Profile.Edges"
	}
	return ""
}

// TestArtifactCacheFrameLayer: references folded over the shared
// per-frame layer equal the nil-cache RunReference oracle field for
// field, whichever order the batches arrive in, and each distinct frame
// is extracted exactly once, under both host models.
func TestArtifactCacheFrameLayer(t *testing.T) {
	grid := frameGrid()
	hosts := []*cost.Model{cost.NewPPE(), cost.NewDesktop()}
	type refKey struct {
		host string
		w    Workload
	}
	want := make(map[refKey]*ReferenceResult)
	var nilCache *ArtifactCache
	for _, host := range hosts {
		for _, w := range grid {
			ref, err := nilCache.Reference(host, w)
			if err != nil {
				t.Fatal(err)
			}
			want[refKey{host.Name, w}] = ref
		}
	}
	check := func(t *testing.T, c *ArtifactCache, host *cost.Model, w Workload) {
		got, err := c.Reference(host, w)
		if err != nil {
			t.Error(err)
			return
		}
		if f := sameReference(got, want[refKey{host.Name, w}]); f != "" {
			t.Errorf("%s %+v: %s differs from the nil-cache reference", host.Name, w, f)
		}
	}
	orders := map[string]func(t *testing.T, c *ArtifactCache){
		"ascending": func(t *testing.T, c *ArtifactCache) {
			for _, host := range hosts {
				for _, w := range grid {
					check(t, c, host, w)
				}
			}
		},
		"descending": func(t *testing.T, c *ArtifactCache) {
			for _, host := range hosts {
				for i := len(grid) - 1; i >= 0; i-- {
					check(t, c, host, grid[i])
				}
			}
		},
		"concurrent": func(t *testing.T, c *ArtifactCache) {
			var wg sync.WaitGroup
			for _, host := range hosts {
				for _, w := range grid {
					wg.Add(1)
					go func() {
						defer wg.Done()
						check(t, c, host, w)
					}()
				}
			}
			wg.Wait()
		},
	}
	for name, run := range orders {
		t.Run(name, func(t *testing.T) {
			c := NewArtifactCache()
			run(t, c)
			// 4 frames per geometry, shared by every batch and both hosts.
			if _, misses := c.frames.Stats(); misses != 8 {
				t.Fatalf("frame layer misses = %d, want 8 (one per distinct frame)", misses)
			}
			// 16 (host, workload) references each look up the model set
			// and their k frames once: 16 + 2*2*(1+2+3+4) = 56 lookups,
			// whose misses are 1 model set and 8 frames.
			if hits, misses := c.Stats(); hits != 56-9 || misses != 9 {
				t.Fatalf("Stats() = %d hits / %d misses, want 47 / 9", hits, misses)
			}
		})
	}
}

// BenchmarkReferenceBatchGrid prices the reference side of a calibration,
// batches 1..4 at both geometries: cold on a fresh cache (the model set,
// and synthesis and host extraction of 8 frames), and warm on a cache that
// already holds them, which prices the fold every Reference call repeats.
func BenchmarkReferenceBatchGrid(b *testing.B) {
	grid := frameGrid()
	host := cost.NewPPE()
	refs := func(b *testing.B, c *ArtifactCache) {
		for _, w := range grid {
			if _, err := c.Reference(host, w); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refs(b, NewArtifactCache())
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := NewArtifactCache()
		refs(b, c)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refs(b, c)
		}
	})
}
