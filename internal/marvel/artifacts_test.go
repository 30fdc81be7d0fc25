package marvel

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"cellport/internal/cost"
)

func TestArtifactCacheSharesPointers(t *testing.T) {
	c := NewArtifactCache()
	w := testWorkload(2)

	if a, b := c.Images(w), c.Images(w); len(a) != 2 || &a[0] != &b[0] {
		t.Fatal("Images not shared across lookups")
	}
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
	rb, _ := c.Reference(cost.NewPPE(), w)
	if ra != rb {
		t.Fatal("Reference not shared across lookups")
	}
	// A different host model is a different artifact.
	rd, err := c.Reference(cost.NewDesktop(), w)
	if err != nil {
		t.Fatal(err)
	}
	if rd == ra || rd.Host == ra.Host {
		t.Fatal("Desktop reference must be distinct from the PPE one")
	}
}

func TestArtifactCacheNilIsColdPath(t *testing.T) {
	var c *ArtifactCache
	w := testWorkload(1)
	if a, b := c.Images(w), c.Images(w); &a[0] == &b[0] {
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
		if refs[i] != refs[0] {
			t.Fatal("concurrent Reference callers must share one result")
		}
	}
	// One miss per layer (images, model set, the workload's one frame,
	// reference); everything else is hits.
	if _, misses := c.Stats(); misses != 4 {
		t.Fatalf("misses = %d, want 4 (one per artifact layer)", misses)
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
				if compareImage(&a.Images[i], &got.Images[i]) != 0 {
					t.Fatalf("%v image %d: feature outputs differ cache-on vs cache-off", scen, i)
				}
			}
		}
		// One miss each for images, model set and reference, plus one per
		// frame.
		if hits, misses := warm.Artifacts.Stats(); hits == 0 || misses != 3+uint64(base.Workload.Images) {
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
	case got.Profile.Total() != want.Profile.Total():
		return "Profile.Total"
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
	want := make(map[refKey]*ReferenceResult)
	var nilCache *ArtifactCache
	for _, host := range hosts {
		for _, w := range grid {
			ref, err := nilCache.Reference(host, w)
			if err != nil {
				t.Fatal(err)
			}
			want[refKey{Host: host.Name, W: w}] = ref
		}
	}
	check := func(t *testing.T, c *ArtifactCache, host *cost.Model, w Workload) {
		got, err := c.Reference(host, w)
		if err != nil {
			t.Error(err)
			return
		}
		if f := sameReference(got, want[refKey{Host: host.Name, W: w}]); f != "" {
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
			// 16 (host, workload) references each look up the model set,
			// the images and their k frames once: misses are the 16
			// references, 1 model set, 8 image sets and 8 frames.
			if hits, misses := c.Stats(); hits != 88-33 || misses != 33 {
				t.Fatalf("Stats() = %d hits / %d misses, want 55 / 33", hits, misses)
			}
		})
	}
}

// BenchmarkReferenceBatchGrid prices the reference side of a calibration:
// a fresh cache asked for batches 1..4 at both geometries.
func BenchmarkReferenceBatchGrid(b *testing.B) {
	grid := frameGrid()
	host := cost.NewPPE()
	for i := 0; i < b.N; i++ {
		c := NewArtifactCache()
		for _, w := range grid {
			if _, err := c.Reference(host, w); err != nil {
				b.Fatal(err)
			}
		}
	}
}
