package serve

import (
	"fmt"
	"testing"

	"cellport/internal/sim"
)

// TestBladeBacklogTracksQueue drives every queue change on one blade —
// admission, deadline expiry and batch removal in dispatch, and the
// crash and restart-drain clears — and checks after each call that the
// running backlog equals the sum of estOne over the queue, the value
// bladeScore used to recompute per score.
func TestBladeBacklogTracksQueue(t *testing.T) {
	cfg := quickConfig().withDefaults()
	cfg.Blades = 1
	cfg.Requests = 64
	p := newPool(cfg, mustCal(t), 0)
	b := p.blades[0]
	if p.estOnes[0] == p.estOnes[1] {
		t.Fatalf("both geometries estimate %v: the test cannot tell them apart", p.estOnes[0])
	}
	check := func(step string) {
		t.Helper()
		var want sim.Duration
		for _, q := range b.queue {
			want += p.estOne(q)
		}
		if b.backlog != want {
			t.Fatalf("%s: backlog %v, want Σ estOne %v over %d queued", step, b.backlog, want, len(b.queue))
		}
	}
	id := 0
	admit := func(tall bool, deadline sim.Time) {
		t.Helper()
		r := Request{ID: id, Arrival: p.now, Tall: tall, Deadline: deadline}
		id++
		p.admitInto(r, p.blades, &p.rr)
		check(fmt.Sprintf("admit %d", r.ID))
	}
	complete := func(step string) {
		t.Helper()
		if !b.busy {
			t.Fatalf("%s: blade idle", step)
		}
		p.now = b.done
		p.complete(b)
		check(step)
	}
	fault := func(kind bladeEventKind, step string) {
		t.Helper()
		p.now++
		p.applyFault(bladeEvent{at: p.now, kind: kind})
		check(step)
	}

	// An idle blade dispatches its first admission at once; the next
	// admissions fill the queue with both geometries, and one more is
	// rejected without touching the backlog.
	admit(false, sim.Never)
	for i := 0; i < cfg.MaxQueue; i++ {
		admit(i%2 == 1, sim.Never)
	}
	admit(true, sim.Never)
	if len(b.queue) != cfg.MaxQueue || b.backlog == 0 {
		t.Fatalf("queue %d, backlog %v: want a full queue", len(b.queue), b.backlog)
	}
	complete("batch removal")

	// Requests whose deadline passes before the next dispatch expire
	// there, next to a batch that survives.
	expiring := id
	admit(true, p.now+1)
	admit(false, p.now+1)
	admit(false, sim.Never)
	complete("expiry and batch removal")
	for i := expiring; i < expiring+2; i++ {
		if o := p.outcomes[i]; o.finishes != 1 || o.state != outShedExpired {
			t.Fatalf("request %d: %d outcomes, state %v; want shed as expired", i, o.finishes, o.state)
		}
	}

	// A crash evicts the queue; the blade restarts through a drain with
	// a fresh queue, which the restart clears again.
	admit(true, sim.Never)
	fault(evBladeCrash, "crash")
	if len(b.queue) != 0 {
		t.Fatalf("crash left %d queued", len(b.queue))
	}
	b.health = healthUp
	admit(false, sim.Never)
	admit(true, sim.Never)
	admit(false, sim.Never)
	fault(evDrainStart, "drain start")
	fault(evRestartFire, "restart")
	if len(b.queue) != 0 || b.backlog != 0 {
		t.Fatalf("restart left %d queued, backlog %v", len(b.queue), b.backlog)
	}
}
