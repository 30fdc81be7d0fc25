package eib

import (
	"math"
	"testing"

	"cellport/internal/sim"
)

// TestAbortReleasesWaiterSkipsOnDone: aborting a mid-flight transfer does
// NOT run its completion callback — the data never arrived — and takes it
// off the bus at once; the test flow releases its waiter at the abort
// time.
func TestAbortReleasesWaiterSkipsOnDone(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	delivered := false
	var tr *flow
	var wokeAt sim.Time
	e.Spawn("dma", func(p *sim.Proc) {
		tr = start(b, PortMemory, SPEPort(0), 25_600_000_000, func() { delivered = true }) // ~1 s
		tr.Wait(p)
		wokeAt = p.Now()
	})
	e.Spawn("killer", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		tr.Abort()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != sim.Time(sim.Millisecond) {
		t.Errorf("waiter resumed at %v, want the abort time 1ms", wokeAt)
	}
	if delivered {
		t.Error("onDone ran for an aborted transfer")
	}
	if len(b.active) != 0 {
		t.Errorf("%d transfers still active after abort", len(b.active))
	}
}

// TestAbortFreesBandwidthForSurvivors: when one of two flows sharing the
// memory port is aborted, the survivor's remaining bytes move at full
// port rate — abort must trigger reallocation, not leak allocated
// bandwidth.
func TestAbortFreesBandwidthForSurvivors(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	bw := b.cfg.PortBandwidth
	size := int64(bw) // 1 s alone at port bw
	var victim *flow
	var survivorDone sim.Time
	e.Spawn("victim", func(p *sim.Proc) {
		victim = start(b, PortMemory, SPEPort(0), size, nil)
		victim.Wait(p)
	})
	e.Spawn("survivor", func(p *sim.Proc) {
		tr := start(b, PortMemory, SPEPort(1), size, nil)
		tr.Wait(p)
		survivorDone = p.Now()
	})
	e.Spawn("killer", func(p *sim.Proc) {
		p.Sleep(sim.Duration(sim.Second / 2))
		victim.Abort()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Shared memory port for 0.5 s (half rate each: 0.25 s of progress),
	// then full rate for the remaining 0.75 s of bytes: 1.25 s total.
	if got := survivorDone.Seconds(); math.Abs(got-1.25) > 1e-6 {
		t.Fatalf("survivor finished at %.9fs, want 1.25s (bandwidth reclaimed on abort)", got)
	}
}

// TestAbortIdempotentAndAfterDone: aborting twice, or aborting a transfer
// that already completed, is a no-op: onDone ran once and the bus keeps
// its accounting.
func TestAbortIdempotentAndAfterDone(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, DefaultConfig())
	delivered := 0
	e.Spawn("dma", func(p *sim.Proc) {
		tr := start(b, PortMemory, SPEPort(0), 1024, func() { delivered++ })
		tr.Wait(p)
		tr.Abort() // already done
		tr.Abort()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("onDone ran %d times, want 1", delivered)
	}
	if len(b.active) != 0 || b.BytesMoved() != 1024 {
		t.Fatalf("after aborting a finished transfer: %d active, %v bytes moved, want 0 and 1024",
			len(b.active), b.BytesMoved())
	}
}

// TestStartAbortAllocsIndependentOfSharers: starting and aborting a
// transfer re-rates, and so re-arms the completion timer of, every
// transfer sharing its port. Re-arming must not allocate, so the pair
// costs the same with one transfer in flight as with fifteen.
func TestStartAbortAllocsIndependentOfSharers(t *testing.T) {
	allocs := func(inflight int) float64 {
		b := New(sim.NewEngine(), DefaultConfig())
		for i := 0; i < inflight; i++ {
			b.Start(PortMemory, SPEPort(i), 1<<30, nil)
		}
		return testing.AllocsPerRun(100, func() {
			b.Start(PortMemory, SPEPort(inflight), 1<<20, nil).Abort()
		})
	}
	one, many := allocs(1), allocs(15)
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; counts not compared")
	}
	if one != many {
		t.Fatalf("Start+Abort allocates %v times with 1 transfer in flight and %v with 15", one, many)
	}
}
