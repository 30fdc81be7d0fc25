package svm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRBFKernelProperties(t *testing.T) {
	k := RBF{Gamma: 0.5}
	a := []float32{1, 2, 3}
	b := []float32{1, 2, 3}
	if v := k.Eval(a, b); math.Abs(v-1) > 1e-12 {
		t.Fatalf("K(a,a) = %v, want 1", v)
	}
	c := []float32{4, 5, 6}
	if k.Eval(a, c) >= 1 || k.Eval(a, c) <= 0 {
		t.Fatal("RBF must be in (0,1) for distinct points")
	}
	if k.Eval(a, c) != k.Eval(c, a) {
		t.Fatal("kernel must be symmetric")
	}
}

func TestLinearKernel(t *testing.T) {
	k := Linear{}
	if v := k.Eval([]float32{1, 2}, []float32{3, 4}); v != 11 {
		t.Fatalf("linear = %v, want 11", v)
	}
}

func TestModelValidate(t *testing.T) {
	m := &Model{Concept: "c"}
	if err := m.Validate(); err == nil {
		t.Error("empty model should fail")
	}
	m.SupportVectors = [][]float32{{1, 2}}
	m.Coeffs = []float64{1, 2}
	if err := m.Validate(); err == nil {
		t.Error("coeff mismatch should fail")
	}
	m.Coeffs = []float64{1}
	if err := m.Validate(); err == nil {
		t.Error("nil kernel should fail")
	}
	m.Kernel = Linear{}
	if err := m.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	m.SupportVectors = append(m.SupportVectors, []float32{1})
	m.Coeffs = append(m.Coeffs, 1)
	if err := m.Validate(); err == nil {
		t.Error("ragged support vectors should fail")
	}
}

func TestDecisionDimCheckPanics(t *testing.T) {
	m := Synthetic("c", 1, 4, 8, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch should panic")
		}
	}()
	m.Decision([]float32{1})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := Synthetic("roundtrip", 7, 12, 166, 2.5)
	enc, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != EncodedLen(12, 166) {
		t.Fatalf("encoded len = %d, want %d", len(enc), EncodedLen(12, 166))
	}
	dec, err := Decode("roundtrip", enc)
	if err != nil {
		t.Fatal(err)
	}
	// Decisions must agree on arbitrary inputs within float32 slack.
	probe := make([]float32, 166)
	for i := range probe {
		probe[i] = float32(i%7) / 7
	}
	if d1, d2 := m.Decision(probe), dec.Decision(probe); math.Abs(d1-d2) > 1e-4 {
		t.Fatalf("decisions diverge: %v vs %v", d1, d2)
	}
}

func TestDecodeRejectsCorruptData(t *testing.T) {
	if _, err := Decode("x", nil); err == nil {
		t.Error("nil data should fail")
	}
	if _, err := Decode("x", []float32{0, 0, 0, 0}); err == nil {
		t.Error("zero shape should fail")
	}
	m := Synthetic("x", 1, 3, 4, 1)
	enc, _ := Encode(m)
	if _, err := Decode("x", enc[:len(enc)-1]); err == nil {
		t.Error("truncated data should fail")
	}
}

func TestSyntheticShape(t *testing.T) {
	m := Synthetic("concept", 42, 225, 166, 4)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.SupportVectors) != 225 || m.Dim() != 166 {
		t.Fatalf("shape %dx%d", len(m.SupportVectors), m.Dim())
	}
	// Support vectors are unit-L1.
	for i, sv := range m.SupportVectors {
		var s float64
		for _, v := range sv {
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-4 {
			t.Fatalf("SV %d L1 = %v", i, s)
		}
	}
	// Deterministic.
	m2 := Synthetic("concept", 42, 225, 166, 4)
	if m.Bias != m2.Bias || m.Coeffs[3] != m2.Coeffs[3] {
		t.Fatal("synthetic models not deterministic")
	}
}

// Property: decisions are invariant under permutation of support vectors.
func TestPropDecisionPermutationInvariant(t *testing.T) {
	m := Synthetic("p", 3, 16, 8, 1.5)
	probe := make([]float32, 8)
	for i := range probe {
		probe[i] = float32(i) / 8
	}
	base := m.Decision(probe)
	f := func(seed uint32) bool {
		perm := &Model{Concept: "p", Kernel: m.Kernel, Bias: m.Bias}
		idx := make([]int, 16)
		for i := range idx {
			idx[i] = i
		}
		s := uint64(seed) | 1
		for i := 15; i > 0; i-- {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			j := int(s % uint64(i+1))
			idx[i], idx[j] = idx[j], idx[i]
		}
		for _, i := range idx {
			perm.SupportVectors = append(perm.SupportVectors, m.SupportVectors[i])
			perm.Coeffs = append(perm.Coeffs, m.Coeffs[i])
		}
		return math.Abs(perm.Decision(probe)-base) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
