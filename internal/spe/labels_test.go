package spe

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cellport/internal/cost"
	"cellport/internal/eib"
	"cellport/internal/mainmem"
	"cellport/internal/mfc"
	"cellport/internal/sim"
)

// TestDeadlockReportsNameEveryQueue wedges a process on each of an SPE's
// six wait queues and checks the labels the deadlock report prints, for
// an SPE whose labels come from the table and one past its end.
func TestDeadlockReportsNameEveryQueue(t *testing.T) {
	for _, id := range []int{3, len(labelTable) + 4} {
		e := sim.NewEngine()
		s := New(e, id, eib.New(e, eib.DefaultConfig()), mainmem.New(1<<20), cost.NewSPE(), nil)
		s.MFC.SetFaultHook(func() mfc.FaultAction { return mfc.FaultDrop })
		if err := s.Load(Program{Name: "reader", CodeBytes: 128, Main: func(ctx *Context) { ctx.ReadInMbox() }}); err != nil {
			t.Fatal(err)
		}
		e.Spawn("done", func(p *sim.Proc) { s.WaitStopped(p) })
		e.Spawn("out", func(p *sim.Proc) { s.OutMbox.Read(p) })
		e.Spawn("intr", func(p *sim.Proc) {
			s.OutIntrMbox.Write(p, 1)
			s.OutIntrMbox.Write(p, 2)
		})
		e.Spawn("queue", func(p *sim.Proc) {
			for i := 0; i <= mfc.QueueDepth; i++ { // every dropped command keeps its slot
				if err := s.MFC.Get(p, 0, 0, 16, 0); err != nil {
					t.Error(err)
					return
				}
			}
		})
		e.Spawn("tag", func(p *sim.Proc) {
			p.Sleep(sim.Microsecond) // after the first drop
			s.MFC.WaitTag(p, 0)
		})
		var dl *sim.DeadlockError
		if err := e.Run(); !errors.As(err, &dl) {
			t.Fatalf("SPE%d: Run = %v, want a deadlock", id, err)
		}
		got := map[string]string{}
		for _, b := range dl.Blocked {
			got[b.Name] = b.Queue
		}
		n := fmt.Sprint(id)
		want := map[string]string{
			"SPE" + n + ":reader": "SPE" + n + " in-mbox not-empty",
			"done":                "SPE" + n + " done",
			"out":                 "SPE" + n + " out-mbox not-empty",
			"intr":                "SPE" + n + " out-intr-mbox not-full",
			"queue":               "SPE" + n + " MFC queue",
			"tag":                 "SPE" + n + " tag-group",
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("SPE%d: blocked on %v, want %v", id, got, want)
		}
	}
}
