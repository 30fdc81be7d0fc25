package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"cellport/internal/marvel"
)

// TestChaosExpDeterminism pins the chaos experiment's acceptance
// criteria at the experiments layer: the seeded blade-lifecycle run is
// byte-identical at -parallel 1 and 4, the schedule actually fires, and
// the ledger conserves over every shed category.
func TestChaosExpDeterminism(t *testing.T) {
	cache := marvel.NewArtifactCache()
	measure := func(parallel int) *ChaosResult {
		t.Helper()
		cfg := Config{
			Quick:     true,
			Seed:      20070710,
			Parallel:  parallel,
			Artifacts: cache,
			Serve:     ServeConfig{Blades: 2, Seed: 7},
		}
		res, err := ChaosExp(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	marshalRes := func(r *ChaosResult) []byte {
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
		t.Fatalf("chaos diverged between -parallel 4 and 1:\n got %s\nwant %s", got, want)
	}

	c := res.Chaos
	if c.BladeCrashes == 0 || res.Seed == 0 || res.Spec == "" {
		t.Fatalf("seeded schedule did not fire: crashes=%d seed=%d spec=%q",
			c.BladeCrashes, res.Seed, res.Spec)
	}
	for name, rep := range map[string]*struct {
		served, rej, exp, rer, exh, reqs int
	}{
		"baseline": {res.Baseline.Served, res.Baseline.ShedRejected, res.Baseline.ShedExpired,
			res.Baseline.ShedRerouted, res.Baseline.ShedExhausted, res.Baseline.Requests},
		"chaos": {c.Served, c.ShedRejected, c.ShedExpired, c.ShedRerouted, c.ShedExhausted, c.Requests},
	} {
		if sum := rep.served + rep.rej + rep.exp + rep.rer + rep.exh; sum != rep.reqs {
			t.Fatalf("%s ledger leaks: %d != %d requests", name, sum, rep.reqs)
		}
	}
	if res.GoodputRatio <= 0 || res.GoodputRatio > 1 {
		t.Fatalf("goodput ratio %v outside (0,1]: chaos cannot beat its own baseline", res.GoodputRatio)
	}
}

// TestChaosExpExplicitPlan checks an explicit blade-level -faults spec
// takes precedence over the seeded schedule (Seed stays 0) and still
// produces a conserving, reproducible run.
func TestChaosExpExplicitPlan(t *testing.T) {
	cfg := Config{
		Quick:     true,
		Seed:      20070710,
		Parallel:  4,
		Artifacts: marvel.NewArtifactCache(),
		Serve:     ServeConfig{Blades: 2, Seed: 7},
		FaultSpec: "blade-crash:blade=1,at=5ms",
	}
	res, err := ChaosExp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 0 {
		t.Fatalf("explicit spec still drew a seeded schedule (seed %d)", res.Seed)
	}
	if res.Spec != cfg.FaultSpec {
		t.Fatalf("spec %q, want the explicit plan %q", res.Spec, cfg.FaultSpec)
	}
	if res.Chaos.BladeCrashes != 1 {
		t.Fatalf("crashes fired %d, want 1", res.Chaos.BladeCrashes)
	}
}
