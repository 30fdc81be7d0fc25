package marvel

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cellport/internal/fault"
)

// TestPrefetchCoversEveryInvocation checks that the helpers prefetch
// exactly the memo entries the event loop looks up. On a fresh cache each
// of the four kernels misses once per frame, the skip index holds one
// prefetch job per miss, and the lookups are twice the misses: every key
// the event loop asked for was a prefetched one. A second run on the same
// cache lists no host job, so it starts no helper, and its event-loop
// lookups all hit.
func TestPrefetchCoversEveryInvocation(t *testing.T) {
	const images = 3
	for _, scen := range []Scenario{SingleSPE, MultiSPE, MultiSPE2, Pipelined} {
		for _, h := range []int{240, 480} {
			t.Run(fmt.Sprintf("%v/h%d", scen, h), func(t *testing.T) {
				cfg := PortedConfig{
					Workload:      Workload{Images: images, W: 352, H: h, Seed: 99},
					Scenario:      scen,
					Variant:       Optimized,
					Validate:      true,
					MachineConfig: testMachineConfig(),
					Artifacts:     NewArtifactCache(),
				}
				arts := cfg.Artifacts
				res := mustRun(t, cfg)
				if res.ValidationErrors != 0 {
					t.Fatalf("%d validation errors", res.ValidationErrors)
				}
				hits, misses := arts.KernelStats()
				want := uint64(len(ExtractKernels) * images)
				if misses != want {
					t.Errorf("misses = %d, want %d (one per kernel and frame)", misses, want)
				}
				if jobs := prefetchClaims(arts, cfg); jobs != misses {
					t.Errorf("%d prefetch jobs for %d misses", jobs, misses)
				}
				if hits != misses {
					t.Errorf("hits = %d, misses = %d: an event-loop key was not prefetched", hits, misses)
				}

				sched, err := scen.Schedule()
				if err != nil {
					t.Fatal(err)
				}
				if jobs := cfg.hostJobs(arts, sched, arts.framesOf(cfg.Workload)); len(jobs) != 0 {
					t.Errorf("warm cache lists %d host jobs, want none", len(jobs))
				}
				again := mustRun(t, cfg)
				h2, m2 := arts.KernelStats()
				if m2 != misses || h2 != hits+want {
					t.Errorf("warm run: hits/misses %d/%d, want %d/%d", h2, m2, hits+want, misses)
				}
				if !reflect.DeepEqual(again, res) {
					t.Error("warm run's result differs from the prefetched one")
				}
			})
		}
	}
}

// prefetchClaims counts the skip-index entries cfg's frames hold for its
// variant: one per prefetch job a run listed.
func prefetchClaims(arts *ArtifactCache, cfg PortedConfig) uint64 {
	var n uint64
	for _, f := range arts.framesOf(cfg.Workload) {
		for id := range f.prefetched[cfg.Variant] {
			if f.prefetched[cfg.Variant][id].Load() {
				n++
			}
		}
	}
	return n
}

// TestPrefetchDMACorruptRecomputes checks that a memo warmed by prefetch
// cannot mask a corrupted transfer: the corrupted band equals no cached
// frame's rows, so that invocation makes no memo lookup and recomputes
// inline from the bytes it was delivered, and the run equals
// the cold-cache run. The faulted run prefetches nothing, so every other
// invocation, the retried one included, hits an entry the clean run's
// prefetch stored.
func TestPrefetchDMACorruptRecomputes(t *testing.T) {
	cfg := PortedConfig{
		Workload:      testWorkload(2),
		Scenario:      MultiSPE2,
		Variant:       Naive,
		Validate:      true,
		MachineConfig: testMachineConfig(),
		Artifacts:     NewArtifactCache(),
	}
	mustRun(t, cfg)
	cleanHits, clean := cfg.Artifacts.KernelStats()

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
		t.Fatalf("the plan did not trip supervision: %+v", inline.Faults)
	}
	// The clean run's event loop hit once per invocation; the faulted run
	// adds one invocation per retry and takes the corrupted one away.
	if want := 2*cleanHits + uint64(inline.Faults.Retries) - 1; misses != clean || hits != want {
		t.Errorf("hits/misses after the corrupted run = %d/%d, want %d/%d (no lookup by the corrupted invocation)", hits, misses, want, clean)
	}
	if !reflect.DeepEqual(memo, inline) {
		t.Fatalf("corrupted run differs from the cold-cache run:\n got %+v\nwant %+v", memo, inline)
	}
}

// TestKernelMemoJoinedPanicError checks that a kernel whose memo lookup
// joins a computation that panics in another goroutine fails the run,
// naming the kernel, instead of writing an empty output over stale local
// store bytes.
func TestKernelMemoJoinedPanicError(t *testing.T) {
	cfg := PortedConfig{
		Workload:      testWorkload(1),
		Scenario:      SingleSPE,
		Variant:       Optimized,
		Validate:      true,
		MachineConfig: testMachineConfig(),
		Artifacts:     NewArtifactCache(),
	}
	arts, w := cfg.Artifacts, cfg.Workload
	frames := arts.framesOf(w)
	// Claim every frame in the skip index so the run prefetches nothing
	// and only the event loop looks the key up.
	for _, f := range frames {
		for _, id := range ExtractKernels {
			f.prefetched[cfg.Variant][id].Store(true)
		}
	}
	slices, err := ExecPlan(KCH, cfg.Variant, w.W, w.H)
	if err != nil {
		t.Fatal(err)
	}
	key := frameRun(arts, KCH, frames[0], slices).key()

	release := make(chan struct{})
	planted := make(chan struct{})
	go func() {
		defer close(planted)
		defer func() { recover() }()
		arts.kernels.Do(key, func() (kernelOut, error) {
			<-release
			panic("planted")
		})
	}()
	for _, m := arts.KernelStats(); m == 0; _, m = arts.KernelStats() {
		time.Sleep(50 * time.Microsecond)
	}
	go func() {
		// The histogram kernel runs first under SingleSPE: release the
		// planted computation once its lookup has joined it.
		for h, _ := arts.KernelStats(); h == 0; h, _ = arts.KernelStats() {
			time.Sleep(50 * time.Microsecond)
		}
		close(release)
	}()
	res, err := RunPorted(cfg)
	<-planted
	if err == nil {
		t.Fatalf("run succeeded with %d validation errors, want the kernel's error", res.ValidationErrors)
	}
	if !strings.Contains(err.Error(), KCH.String()) {
		t.Fatalf("error %q does not name the %s kernel", err, KCH)
	}
}

// TestHelpersPanicError checks that a panicking helper job comes back
// from the pool's join as an error carrying the panic value, and that
// joining again returns it again.
func TestHelpersPanicError(t *testing.T) {
	h := startHelpers([]func() error{
		func() error { panic("helper boom") },
		func() error { return nil },
	})
	err := h.wait()
	if err == nil || !strings.Contains(err.Error(), "helper boom") {
		t.Fatalf("wait() = %v, want the helper's panic", err)
	}
	if again := h.wait(); again != err {
		t.Errorf("second wait() = %v, want the same error", again)
	}
}

// BenchmarkRacePointCold prices one port-race point's simulated half: a
// validated MultiSPE2 run of four 352x480 frames on a fresh cache, so
// every kernel output and every reference feature is computed once.
func BenchmarkRacePointCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := PortedConfig{
			Workload:      Workload{Images: 4, W: 352, H: 480, Seed: 7},
			Scenario:      MultiSPE2,
			Variant:       Optimized,
			Validate:      true,
			MachineConfig: testMachineConfig(),
			Artifacts:     NewArtifactCache(),
		}
		res, err := RunPorted(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.ValidationErrors != 0 {
			b.Fatalf("%d validation errors", res.ValidationErrors)
		}
	}
}
