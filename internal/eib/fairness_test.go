package eib

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cellport/internal/sim"
)

// TestEqualFlowsFinishTogether: max-min fairness gives identical flows
// identical rates, so same-size transfers sharing the same bottleneck
// complete at the same instant.
func TestEqualFlowsFinishTogether(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	var done []sim.Time
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			start(b, PortMemory, SPEPort(i), 1<<24, nil).Wait(p)
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(done); i++ {
		if done[i] != done[0] {
			t.Fatalf("equal flows finished at different times: %v", done)
		}
	}
}

// TestSmallFlowNotStarvedByLargeOnes: a tiny transfer sharing the memory
// port with huge ones still gets its fair share and finishes early.
func TestSmallFlowNotStarvedByLargeOnes(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	var small sim.Time
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("big%d", i), func(p *sim.Proc) {
			start(b, PortMemory, SPEPort(i), 1<<30, nil).Wait(p)
		})
	}
	e.Spawn("small", func(p *sim.Proc) {
		start(b, PortMemory, SPEPort(7), 64*1024, nil).Wait(p)
		small = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Fair share = 25.6/4 GB/s; 64 KiB at 6.4 GB/s ≈ 10.24 µs.
	want := 64.0 * 1024 / 6.4e9
	if got := small.Seconds(); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("small flow finished at %.3gs, want ~%.3gs", got, want)
	}
}

// Property: aggregate delivered bandwidth never exceeds the fabric cap —
// checked by total bytes over makespan for random concurrent loads.
func TestPropAggregateBandwidthCap(t *testing.T) {
	f := func(sizes [6]uint32) bool {
		e := sim.NewEngine()
		cfg := DefaultConfig()
		b := New(e, cfg)
		var total float64
		var last sim.Time
		for i, sRaw := range sizes {
			size := int64(sRaw%(1<<22)) + 1024
			total += float64(size)
			i := i
			e.Spawn(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
				start(b, SPEPort(2*i), SPEPort(2*i+1), size, nil).Wait(p)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if last == 0 {
			return false
		}
		avgBW := total / last.Seconds()
		return avgBW <= cfg.TotalBandwidth*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
