package eib

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cellport/internal/sim"
)

func run(t *testing.T, e *sim.Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleTransferPortLimited(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	var finished sim.Time
	e.Spawn("dma", func(p *sim.Proc) {
		tr := start(b, PortMemory, SPEPort(0), 25_600_000_000, nil) // 1 s at port bw
		tr.Wait(p)
		finished = p.Now()
	})
	run(t, e)
	if got := finished.Seconds(); math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("single transfer took %.9fs, want 1s (port-limited)", got)
	}
}

func TestZeroSizeCompletesInstantly(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	done := false
	e.Spawn("dma", func(p *sim.Proc) {
		delivered := false
		tr := start(b, PortMemory, SPEPort(0), 0, func() { delivered = true })
		if !delivered {
			t.Error("zero-size transfer should complete inside Start")
		}
		tr.Wait(p) // must not block
		done = true
	})
	run(t, e)
	if !done {
		t.Fatal("waiter never resumed")
	}
}

func TestMemoryPortIsSharedBottleneck(t *testing.T) {
	// 8 SPEs pulling from memory simultaneously share the 25.6 GB/s memory
	// port: each gets 3.2 GB/s, so 3.2 GB each takes 1 s.
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	var last sim.Time
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn(fmt.Sprintf("spe%d", i), func(p *sim.Proc) {
			tr := start(b, PortMemory, SPEPort(i), 3_200_000_000, nil)
			tr.Wait(p)
			last = p.Now()
		})
	}
	run(t, e)
	if got := last.Seconds(); math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("8-way shared transfers finished at %.9fs, want 1s", got)
	}
}

func TestDisjointTransfersDontInterfere(t *testing.T) {
	// SPE0->SPE1 and SPE2->SPE3 share only the fabric, which has headroom:
	// both run at full port speed.
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	times := map[string]float64{}
	pairs := [][2]Port{{SPEPort(0), SPEPort(1)}, {SPEPort(2), SPEPort(3)}}
	for i, pr := range pairs {
		name := fmt.Sprintf("t%d", i)
		pr := pr
		e.Spawn(name, func(p *sim.Proc) {
			tr := start(b, pr[0], pr[1], 25_600_000_000, nil)
			tr.Wait(p)
			times[name] = p.Now().Seconds()
		})
	}
	run(t, e)
	for name, got := range times {
		if math.Abs(got-1.0) > 1e-6 {
			t.Errorf("%s finished at %.9fs, want 1s", name, got)
		}
	}
}

func TestLateArrivalSpeedsUpAfterFirstFinishes(t *testing.T) {
	// Two transfers share the memory port (12.8 GB/s each). The first is
	// half the size; after it completes, the second runs at full speed.
	// t1: 12.8GB at 12.8 -> done at 1s. t2: 25.6GB: 12.8GB by 1s, then
	// 12.8GB at 25.6 -> +0.5s. Total 1.5s.
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	var t2done sim.Time
	e.Spawn("a", func(p *sim.Proc) {
		start(b, PortMemory, SPEPort(0), 12_800_000_000, nil).Wait(p)
	})
	e.Spawn("b", func(p *sim.Proc) {
		tr := start(b, PortMemory, SPEPort(1), 25_600_000_000, nil)
		tr.Wait(p)
		t2done = p.Now()
	})
	run(t, e)
	if got := t2done.Seconds(); math.Abs(got-1.5) > 1e-6 {
		t.Fatalf("second transfer finished at %.9fs, want 1.5s", got)
	}
}

func TestFabricAggregateLimits(t *testing.T) {
	// 10 disjoint port pairs would want 10 x 25.6 = 256 GB/s; the fabric
	// caps at 204.8, so each gets 20.48 GB/s.
	e := sim.NewEngine()
	cfg := DefaultConfig()
	b := New(e, cfg)
	var last sim.Time
	// Build 10 disjoint pairs from 20 synthetic ports.
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			tr := start(b, SPEPort(2*i), SPEPort(2*i+1), 20_480_000_000, nil)
			tr.Wait(p)
			last = p.Now()
		})
	}
	run(t, e)
	if got := last.Seconds(); math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("fabric-limited transfers finished at %.9fs, want 1s", got)
	}
}

func TestOnDoneRunsBeforeWaiters(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	var order []string
	e.Spawn("dma", func(p *sim.Proc) {
		tr := start(b, PortMemory, SPEPort(0), 1024, func() { order = append(order, "onDone") })
		tr.Wait(p)
		order = append(order, "waiter")
	})
	run(t, e)
	if len(order) != 2 || order[0] != "onDone" || order[1] != "waiter" {
		t.Fatalf("order = %v, want [onDone waiter]", order)
	}
}

func TestStatsAccumulate(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	e.Spawn("dma", func(p *sim.Proc) {
		start(b, PortMemory, SPEPort(0), 1_000_000, nil).Wait(p)
		start(b, SPEPort(0), PortMemory, 2_000_000, nil).Wait(p)
	})
	run(t, e)
	if b.Transfers() != 2 {
		t.Fatalf("Transfers = %d, want 2", b.Transfers())
	}
	if math.Abs(b.BytesMoved()-3_000_000) > 1 {
		t.Fatalf("BytesMoved = %v, want 3e6", b.BytesMoved())
	}
	if len(b.active) != 0 {
		t.Fatalf("active transfers = %d, want 0", len(b.active))
	}
}

// Property: bytes are conserved and completion time is never earlier than
// the single-flow lower bound size/portBW, for random concurrent loads.
func TestPropConservationAndBounds(t *testing.T) {
	f := func(sizes []uint32) bool {
		e := sim.NewEngine()
		b := New(e, DefaultConfig())
		var total float64
		ok := true
		for i, s := range sizes {
			if i >= 8 {
				break
			}
			size := int64(s%(1<<24)) + 1
			total += float64(size)
			i := i
			lower := float64(size) / b.cfg.PortBandwidth
			e.Spawn(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
				t0 := p.Now()
				start(b, PortMemory, SPEPort(i), size, nil).Wait(p)
				if p.Now().Sub(t0).Seconds() < lower-1e-12 {
					ok = false
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok && math.Abs(b.BytesMoved()-total) < 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
