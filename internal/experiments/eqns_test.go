package experiments

import (
	"math"
	"testing"
)

// TestGoldenEqns pins the quick-config estimator validation bit for bit:
// the two Eq. 1 worked examples and every scenario row's Eqs. 2-3
// estimate and measured speed-up, as math.Float64bits. A refactor of the
// scenario-to-equation mapping must leave every bit in place; a change
// to a summation order moves the last ones.
func TestGoldenEqns(t *testing.T) {
	r, err := Eqns(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	bits := func(name string, got float64, want uint64) {
		t.Helper()
		if g := math.Float64bits(got); g != want {
			t.Errorf("%s = %v (%#x), want %v (%#x)", name, got, g, math.Float64frombits(want), want)
		}
	}
	bits("Eq1At10x", r.Eq1At10x, 0x3ff1951951951951)
	bits("Eq1At100x", r.Eq1At100x, 0x3ff1c20f57cbb866)
	want := []struct {
		name               string
		estimate, measured uint64
	}{
		{"scenario1/single-SPE (Eq.2)", 0x4030c0a4da889cc3, 0x4030bdb60604ab15},
		{"scenario2/multi-SPE (Eq.3)", 0x4033edd5cc938e4b, 0x4033c197075028f7},
		{"scenario3/multi-SPE2 (Eq.3 lanes)", 0x4034fab8d5e59c5b, 0x4034d046b10966e8},
	}
	if len(r.Scenarios) != len(want) {
		t.Fatalf("%d scenario rows, want %d", len(r.Scenarios), len(want))
	}
	for i, w := range want {
		s := r.Scenarios[i]
		if s.Name != w.name {
			t.Errorf("row %d is %q, want %q", i, s.Name, w.name)
		}
		bits(w.name+" estimate", s.Estimate, w.estimate)
		bits(w.name+" measured", s.Measured, w.measured)
	}
}
