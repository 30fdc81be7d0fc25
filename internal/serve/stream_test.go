package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cellport/internal/fault"
	"cellport/internal/parallel"
	"cellport/internal/sim"
)

// settledGoroutines waits for goroutines that have finished their work
// to exit, then fails if more than base remain.
func settledGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after %s, want at most the baseline %d", n, after, base)
	}
}

// TestStreamChunkEdges runs fleet and single-pool configurations at
// stream lengths on both sides of the producer's publication chunk. The
// test plays each stream through the event loop itself, checks that the
// consumed stream equals the one drawn on a single goroutine, that the
// marks arrived one chunk apart, and that Run's report equals the one
// the played stream folds; Run's ledger must conserve, and no goroutine
// may outlive Run.
func TestStreamChunkEdges(t *testing.T) {
	fleet := fleetConfig(t)
	fleet.Autoscale = nil
	single := quickConfig()
	single.Cal = mustCal(t)
	for _, shape := range []struct {
		name string
		cfg  Config
	}{{"fleet", fleet}, {"single", single}} {
		for _, n := range []int{1, arrivalChunk - 1, arrivalChunk, arrivalChunk + 1, 2*arrivalChunk + 1} {
			t.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(t *testing.T) {
				cfg := shape.cfg
				cfg.Requests = n
				if l := cfg.Load; l != nil && l.FlashCount > n {
					// Validate allows at most one flash window per request.
					load := *l
					load.FlashCount = n
					cfg.Load = &load
				}
				cfg.OfferedRPS = 1.5 * cfg.Cal.PerBladeCapacity() * float64(cfg.bladeCount())
				cfg.Deadline = 40 * sim.Millisecond
				base := runtime.NumGoroutine()
				rep := mustRun(t, cfg)
				checkLedger(t, rep)
				if rep.Requests != n {
					t.Fatalf("report holds %d requests, want %d", rep.Requests, n)
				}
				settledGoroutines(t, base, "Run")

				cfg = cfg.withDefaults()
				var marks []int
				s := streamArrivals(n, func(out []Request, publish func(int)) {
					arrivalsShaped(cfg.Seed, out, cfg.OfferedRPS, cfg.Burst, cfg.TallFrac, cfg.Deadline, cfg.Load, func(k int) {
						marks = append(marks, k)
						publish(k)
					})
				})
				p := newPool(cfg, cfg.Cal, cfg.Deadline)
				p.run(s)
				want := arrivalSlice(cfg.Seed, n, cfg.OfferedRPS, cfg.Burst, cfg.TallFrac, cfg.Deadline, cfg.Load)
				if !reflect.DeepEqual(s.reqs, want) {
					t.Fatal("the streamed arrivals differ from the sequential draw")
				}
				for i, k := range marks {
					if wantK := min((i+1)*arrivalChunk, n); k != wantK {
						t.Fatalf("marks %v: mark %d is %d, want %d", marks, i, k, wantK)
					}
				}
				if len(marks) == 0 || marks[len(marks)-1] != n {
					t.Fatalf("marks %v do not end at %d", marks, n)
				}
				played, err := p.report(s.reqs, cfg.OfferedRPS)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(marshal(t, played), marshal(t, rep)) {
					t.Fatal("Run's report differs from the one folded over the played stream")
				}
				settledGoroutines(t, base, "a played stream")
			})
		}
	}
}

// TestStreamNoGoroutineOnFailedRun: a run rejected while arming its
// fault plan (a blade fault past the pool) returns before the producer
// starts, so it leaves no goroutine behind.
func TestStreamNoGoroutineOnFailedRun(t *testing.T) {
	cfg := fleetConfig(t)
	plan, err := fault.Parse("blade-crash:blade=99,at=1ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	base := runtime.NumGoroutine()
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "targets blade 99") {
		t.Fatalf("Run = %v, want the out-of-range blade fault rejected", err)
	}
	settledGoroutines(t, base, "a failed Run")
}

// TestStreamProducerPanicIsAnError plants a panic in the producer after
// its first chunk. The loop consumes that chunk, then raises the panic
// on its own goroutine, where parallel.RunIndexed turns it into job 1's
// error while job 0 streams normally; the producers leave nothing behind.
func TestStreamProducerPanicIsAnError(t *testing.T) {
	cfg := quickConfig().withDefaults()
	cfg.Cal = mustCal(t)
	cfg.Requests = 3 * arrivalChunk
	base := runtime.NumGoroutine()
	_, err := parallel.RunIndexed(2, 2, func(i int) (struct{}, error) {
		p := newPool(cfg, cfg.Cal, 0)
		p.run(streamArrivals(cfg.Requests, func(out []Request, publish func(int)) {
			if i == 0 {
				arrivalsShaped(cfg.Seed, out, 1000, cfg.Burst, cfg.TallFrac, 0, nil, publish)
				return
			}
			arrivalsShaped(cfg.Seed, out[:arrivalChunk], 1000, cfg.Burst, cfg.TallFrac, 0, nil, publish)
			panic("planted producer fault")
		}))
		return struct{}{}, nil
	})
	if err == nil {
		t.Fatal("a panicking producer left RunIndexed without an error")
	}
	for _, want := range []string{"job 1 panicked", "planted producer fault",
		fmt.Sprintf("stopped at %d of %d requests", arrivalChunk, cfg.Requests)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error does not contain %q:\n%v", want, err)
		}
	}
	settledGoroutines(t, base, "a producer panic")
}
