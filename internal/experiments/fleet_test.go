package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"cellport/internal/marvel"
)

// TestFleetExpDeterminism pins the fleet experiment's acceptance
// criteria at the experiments layer: byte-identity at -parallel 1 and
// 4, an autoscaler that demonstrably drains off-peak, a conserving
// six-term ledger, and fleet goodput beating the static single-pool
// baseline on the shared stream.
func TestFleetExpDeterminism(t *testing.T) {
	cache := marvel.NewArtifactCache()
	measure := func(parallel int) *FleetResult {
		t.Helper()
		cfg := serveTestConfig(parallel)
		cfg.Artifacts = cache
		cfg.Serve.Rate = 1.5
		res, err := FleetExp(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	marshalRes := func(r *FleetResult) []byte {
		t.Helper()
		doc, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	res := measure(4)
	serial := measure(1)
	if got, want := marshalRes(res), marshalRes(serial); !bytes.Equal(got, want) {
		t.Fatalf("fleet experiment diverged between -parallel 4 and 1:\n got %s\nwant %s", got, want)
	}

	f := res.Fleet
	if f.Fleet == nil {
		t.Fatal("fleet run carries no fleet stats")
	}
	if f.Fleet.Pools != 4 || f.Blades != 4*2 {
		t.Fatalf("fleet shape wrong: pools=%d blades=%d", f.Fleet.Pools, f.Blades)
	}
	if f.Fleet.ScaleDowns == 0 || f.Fleet.ActiveMin >= f.Fleet.Pools {
		t.Fatalf("autoscaler never drained off-peak: %+v", f.Fleet)
	}
	if res.Single.Fleet != nil {
		t.Fatal("single-pool baseline grew fleet stats")
	}
	if f.OfferedRPS != res.Single.OfferedRPS {
		t.Fatalf("offered rates diverged: fleet %v single %v", f.OfferedRPS, res.Single.OfferedRPS)
	}
	for name, rep := range map[string]*struct {
		served, rej, exp, rer, exh, glob, reqs int
	}{
		"fleet": {f.Served, f.ShedRejected, f.ShedExpired, f.ShedRerouted,
			f.ShedExhausted, f.ShedGlobal, f.Requests},
		"single": {res.Single.Served, res.Single.ShedRejected, res.Single.ShedExpired,
			res.Single.ShedRerouted, res.Single.ShedExhausted, res.Single.ShedGlobal,
			res.Single.Requests},
	} {
		if sum := rep.served + rep.rej + rep.exp + rep.rer + rep.exh + rep.glob; sum != rep.reqs {
			t.Fatalf("%s ledger leaks: %d != %d requests", name, sum, rep.reqs)
		}
	}
	if res.GoodputFleet <= res.GoodputSingle {
		t.Fatalf("fleet goodput %d does not beat the single-pool baseline %d",
			res.GoodputFleet, res.GoodputSingle)
	}
}

// TestFleetExpStatic checks -autoscale off yields a static fleet (no
// scale actions) and -flash off drops the flash windows from the model
// while the experiment still runs end to end.
func TestFleetExpStatic(t *testing.T) {
	cfg := serveTestConfig(4)
	cfg.Serve.Rate = 1.5
	cfg.Fleet = FleetConfig{Pools: 3}
	res, err := FleetExp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Fleet.Fleet
	if fs == nil {
		t.Fatal("fleet run carries no fleet stats")
	}
	if fs.ScaleUps != 0 || fs.ScaleDowns != 0 || fs.ActiveMin != 3 || fs.ActiveFinal != 3 {
		t.Fatalf("static fleet scaled anyway: %+v", fs)
	}
}
