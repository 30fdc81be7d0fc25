package exec

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cellport/internal/cost"
	"cellport/internal/marvel"
)

// TestBackendBitExact is the property the whole race experiment stands
// on: the executed kernels produce exactly the host-reference features
// and decisions — for every schedule shape, batch size, variant and
// worker count. Parallelism is across independent accumulators, so the
// worker count can never change a bit of output.
func TestBackendBitExact(t *testing.T) {
	arts := marvel.NewArtifactCache()
	host := cost.NewPPE()
	scenarios := []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE, marvel.MultiSPE2, marvel.Pipelined}
	for _, workers := range []int{1, 0} { // serial oracle vs GOMAXPROCS
		b := NewBackend(Options{Workers: workers, Reps: 1, Artifacts: arts})
		for _, images := range []int{1, 3} {
			w := marvel.Workload{Images: images, W: 352, H: 96, Seed: 11}
			ref, err := arts.Reference(host, w)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, sc := range scenarios {
				for _, v := range []marvel.Variant{marvel.Naive, marvel.Optimized} {
					name := fmt.Sprintf("workers=%d/images=%d/%v/%v", workers, images, sc, v)
					run, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: sc, Variant: v})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(run.Images) != len(ref.Images) {
						t.Fatalf("%s: got %d images, reference has %d", name, len(run.Images), len(ref.Images))
					}
					for i := range run.Images {
						if m := marvel.CompareImageResults(&ref.Images[i], &run.Images[i]); m != 0 {
							t.Errorf("%s: image %d differs from host reference in %d fields", name, i, m)
						}
					}
					if run.WallNS <= 0 {
						t.Errorf("%s: non-positive wall time %d", name, run.WallNS)
					}
				}
			}
		}
		b.Close()
	}
}

// TestBackendNeverConsultsKernelMemo checks that real execution measures
// real compute: the backend runs its own accumulators and SVM decisions
// and never reads the simulated kernels' memo, extraction or detection,
// even when it shares their cache.
func TestBackendNeverConsultsKernelMemo(t *testing.T) {
	arts := marvel.NewArtifactCache()
	b := NewBackend(Options{Workers: 2, Reps: 1, Artifacts: arts})
	defer b.Close()
	w := marvel.Workload{Images: 2, W: 352, H: 96, Seed: 11}
	for _, sc := range []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE, marvel.MultiSPE2, marvel.Pipelined} {
		if _, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: sc, Variant: marvel.Optimized}); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := arts.KernelStats(); hits != 0 || misses != 0 {
		t.Fatalf("kernel memo hits/misses after Execute = (%d, %d), want (0, 0)", hits, misses)
	}
	if hits, misses := arts.DetectStats(); hits != 0 || misses != 0 {
		t.Fatalf("detection memo hits/misses after Execute = (%d, %d), want (0, 0)", hits, misses)
	}
}

// TestBackendRejectsBadWorkload pins the validation path: a degenerate
// workload and a scenario with no schedule are errors.
func TestBackendRejectsBadWorkload(t *testing.T) {
	b := NewBackend(Options{Workers: 1, Reps: 1, Artifacts: marvel.NewArtifactCache()})
	defer b.Close()
	if _, err := b.Execute(marvel.ExecPoint{}); err == nil {
		t.Fatal("Execute accepted a zero workload")
	}
	w := marvel.Workload{Images: 1, W: 352, H: 96, Seed: 11}
	if _, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: marvel.Pipelined + 1}); err == nil {
		t.Fatal("Execute accepted an unknown scenario")
	}
}

// trackClock is a deterministic clock for Options.Now: every track
// advances 1 ms per read, independently of the others, so its readings
// do not depend on how concurrently running tracks interleave.
type trackClock struct {
	mu    sync.Mutex
	ticks map[string]time.Duration
}

func (c *trackClock) now(track string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ticks == nil {
		c.ticks = map[string]time.Duration{}
	}
	c.ticks[track] += time.Millisecond
	return c.ticks[track]
}

func (c *trackClock) reset() {
	c.mu.Lock()
	c.ticks = nil
	c.mu.Unlock()
}

// TestBackendInstrumentation checks the clock-domain rules on the
// instrumented run: all metrics live in the single "exec" component and
// every trace span sits on an executor lane, never a simulator track.
// Under Pipelined the orchestrator preprocesses while the lanes run, so
// the deterministic clock is per track and the trace is sorted: two
// identical executes must record identical spans at any worker count.
func TestBackendInstrumentation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var clock trackClock
			b := NewBackend(Options{
				Workers:    workers,
				Reps:       2,
				Artifacts:  marvel.NewArtifactCache(),
				Instrument: true,
				Now:        clock.now,
			})
			defer b.Close()
			w := marvel.Workload{Images: 2, W: 352, H: 96, Seed: 11}
			run, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: marvel.Pipelined, Variant: marvel.Optimized})
			if err != nil {
				t.Fatal(err)
			}
			if run.Trace == nil || run.Metrics == nil {
				t.Fatal("instrumented run returned no trace or metrics")
			}
			if len(run.Metrics.Samples) == 0 {
				t.Fatal("instrumented run recorded no metrics")
			}
			for _, sm := range run.Metrics.Samples {
				if sm.Component != "exec" {
					t.Fatalf("exec metric %s/%s outside the exec component (clock domains must not mix)", sm.Component, sm.Name)
				}
			}
			if len(run.Trace.Spans()) == 0 {
				t.Fatal("instrumented run recorded no spans")
			}
			sched, _ := marvel.Pipelined.Schedule()
			lanes := map[string]int{}
			for _, s := range run.Trace.Spans() {
				lanes[s.Lane]++
			}
			for _, id := range sched.Launch {
				if lanes[id.String()] == 0 {
					t.Fatalf("launched lane %s recorded no spans", id)
				}
			}
			// Deterministic clock: a second identical execute must
			// produce the identical span list.
			clock.reset()
			run2, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: marvel.Pipelined, Variant: marvel.Optimized})
			if err != nil {
				t.Fatal(err)
			}
			a, b2 := run.Trace.Spans(), run2.Trace.Spans()
			if len(a) != len(b2) {
				t.Fatalf("span counts differ across identical runs: %d vs %d", len(a), len(b2))
			}
			for i := range a {
				if a[i] != b2[i] {
					t.Fatalf("span %d differs across identical runs: %+v vs %+v", i, a[i], b2[i])
				}
			}
		})
	}
}

// TestExecutePanicError checks that a panic comes back from Execute as
// an error naming the track and the image, instead of killing the
// process, and that no lane goroutine outlives Close. The panic is
// planted through the clock the track reads: a kernel lane's, the
// orchestrator's preprocessing, or its group detection (the "detect"
// track exists only in the scenarios that detect after the join).
func TestExecutePanicError(t *testing.T) {
	arts := marvel.NewArtifactCache()
	w := marvel.Workload{Images: 2, W: 352, H: 96, Seed: 11}
	base := runtime.NumGoroutine()
	all := []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE, marvel.MultiSPE2, marvel.Pipelined}
	for _, tc := range []struct {
		track     string
		scenarios []marvel.Scenario
	}{
		{marvel.KCC.String(), all},
		{"pre", all},
		{"detect", []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE}},
	} {
		for _, sc := range tc.scenarios {
			b := NewBackend(Options{
				Workers:   2,
				Reps:      1,
				Artifacts: arts,
				Now: func(tr string) time.Duration {
					if tr == tc.track {
						panic("boom")
					}
					return 0
				},
			})
			_, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: sc, Variant: marvel.Optimized})
			want := "exec: " + tc.track + " img0: panic: boom"
			if err == nil || err.Error() != want {
				t.Errorf("%s/%v: Execute error = %v, want %q", tc.track, sc, err, want)
			}
			closed := make(chan struct{})
			go func() { b.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s/%v: Close did not return after a panic", tc.track, sc)
			}
		}
	}
	// Goroutines exit after signalling; give them a moment before the
	// one-sided check.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, %d before Execute", n, base)
	}
}

// TestUntracedExecuteAllocs prices one untraced Execute: a run without
// Instrument formats no span label. A 1-image 352x240 MultiSPE2 point
// allocates 83 objects; formatting every slice, finalize and detect
// label up front adds 25.
func TestUntracedExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	b := NewBackend(Options{Workers: 2, Reps: 1, Artifacts: marvel.NewArtifactCache()})
	defer b.Close()
	p := marvel.ExecPoint{Workload: marvel.Workload{Images: 1, W: 352, H: 240, Seed: 11},
		Scenario: marvel.MultiSPE2, Variant: marvel.Optimized}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := b.Execute(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 83 {
		t.Fatalf("untraced Execute allocated %.0f objects, want <= 83", allocs)
	}
}
