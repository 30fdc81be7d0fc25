package amdahl

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestPaperEq1Examples reproduces the worked §4.2 example: a kernel
// covering 10% sped up 10× gives 1.0989; sped up 100× gives 1.1098.
func TestPaperEq1Examples(t *testing.T) {
	s10, err := SpeedUp1(Kernel{Name: "k", Fraction: 0.10, SpeedUp: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s10, 1.0989, 0.0001) {
		t.Errorf("Eq1(10%%,10x) = %.4f, want 1.0989", s10)
	}
	s100, err := SpeedUp1(Kernel{Name: "k", Fraction: 0.10, SpeedUp: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s100, 1.1098, 0.0001) {
		t.Errorf("Eq1(10%%,100x) = %.4f, want 1.1098", s100)
	}
}

func TestValidation(t *testing.T) {
	bad := []Kernel{
		{Name: "f0", Fraction: 0, SpeedUp: 10},
		{Name: "f2", Fraction: 2, SpeedUp: 10},
		{Name: "s0", Fraction: 0.5, SpeedUp: 0},
		{Name: "sneg", Fraction: 0.5, SpeedUp: -3},
		{Name: "snan", Fraction: 0.5, SpeedUp: math.NaN()},
	}
	for _, k := range bad {
		if _, err := SpeedUp1(k); err == nil {
			t.Errorf("kernel %q should be rejected", k.Name)
		}
	}
	if _, err := SpeedUpSequential(nil); err == nil {
		t.Error("empty kernel list should be rejected")
	}
	if _, err := SpeedUpGrouped([]Group{{}}); err == nil {
		t.Error("empty group should be rejected")
	}
	if _, err := SpeedUpSequential([]Kernel{
		{Name: "a", Fraction: 0.7, SpeedUp: 10},
		{Name: "b", Fraction: 0.7, SpeedUp: 10},
	}); err == nil {
		t.Error("fractions summing over 1 should be rejected")
	}
}

func TestEq2ReducesToEq1(t *testing.T) {
	k := Kernel{Name: "only", Fraction: 0.54, SpeedUp: 52.23}
	s1, err := SpeedUp1(k)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SpeedUpSequential([]Kernel{k})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s1, s2, 1e-12) {
		t.Fatalf("Eq2 single kernel %.6f != Eq1 %.6f", s2, s1)
	}
}

func TestEq3SingletonGroupsEqualEq2(t *testing.T) {
	ks := []Kernel{
		{Name: "a", Fraction: 0.08, SpeedUp: 53.67},
		{Name: "b", Fraction: 0.54, SpeedUp: 52.23},
		{Name: "c", Fraction: 0.06, SpeedUp: 15.99},
	}
	s2, err := SpeedUpSequential(ks)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]Group, len(ks))
	for i, k := range ks {
		groups[i] = Group{k}
	}
	s3, err := SpeedUpGrouped(groups)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s2, s3, 1e-12) {
		t.Fatalf("Eq3 singleton groups %.6f != Eq2 %.6f", s3, s2)
	}
}

func TestGroupingNeverHurts(t *testing.T) {
	ks := []Kernel{
		{Name: "a", Fraction: 0.2, SpeedUp: 20},
		{Name: "b", Fraction: 0.3, SpeedUp: 30},
		{Name: "c", Fraction: 0.1, SpeedUp: 5},
	}
	s2, err := SpeedUpSequential(ks)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := SpeedUpGrouped([]Group{{ks[0], ks[1], ks[2]}})
	if err != nil {
		t.Fatal(err)
	}
	if s3 < s2 {
		t.Fatalf("one parallel group (%.4f) should beat sequential (%.4f)", s3, s2)
	}
}

func TestUpperBound(t *testing.T) {
	ks := []Kernel{{Name: "a", Fraction: 0.5, SpeedUp: 10}, {Name: "b", Fraction: 0.25, SpeedUp: 10}}
	if got := UpperBound(ks); !almost(got, 4, 1e-12) {
		t.Fatalf("UpperBound = %v, want 4", got)
	}
	full := []Kernel{{Name: "a", Fraction: 1, SpeedUp: 10}}
	if !math.IsInf(UpperBound(full), 1) {
		t.Fatal("full coverage upper bound should be +Inf")
	}
}

// Property: Eq. 2 results are bounded by 1 <= S <= UpperBound when every
// kernel speed-up is >= 1.
func TestPropEq2Bounds(t *testing.T) {
	f := func(fracRaw []uint8, speedRaw []uint8) bool {
		n := len(fracRaw)
		if n == 0 || n > 6 {
			return true
		}
		var ks []Kernel
		total := 0.0
		for i, fr := range fracRaw {
			f := (float64(fr) + 1) / 256 / float64(n) // keeps sum <= 1
			s := 1.0
			if i < len(speedRaw) {
				s = float64(speedRaw[i]) + 1
			}
			total += f
			ks = append(ks, Kernel{Name: "k", Fraction: f, SpeedUp: s})
		}
		got, err := SpeedUpSequential(ks)
		if err != nil {
			return false
		}
		return got >= 1-1e-9 && got <= UpperBound(ks)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging any two adjacent groups never decreases Eq. 3's
// estimate (more parallelism cannot hurt in this model).
func TestPropMergingGroupsMonotone(t *testing.T) {
	f := func(fracRaw [4]uint8, speedRaw [4]uint8) bool {
		var ks []Kernel
		for i := 0; i < 4; i++ {
			ks = append(ks, Kernel{
				Name:     "k",
				Fraction: (float64(fracRaw[i]) + 1) / 1200,
				SpeedUp:  float64(speedRaw[i]) + 1,
			})
		}
		sep, err := SpeedUpGrouped([]Group{{ks[0]}, {ks[1]}, {ks[2]}, {ks[3]}})
		if err != nil {
			return false
		}
		merged, err := SpeedUpGrouped([]Group{{ks[0], ks[1]}, {ks[2], ks[3]}})
		if err != nil {
			return false
		}
		return merged >= sep-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupedTermsMatchEq3 checks SpeedUpGrouped is 1/((1-covered) +
// residual) over GroupedTerms bit for bit, and that GroupedTerms carries
// a NaN member into the residual instead of skipping it.
func TestGroupedTermsMatchEq3(t *testing.T) {
	groups := []Group{
		{{Name: "a", Fraction: 0.2, SpeedUp: 4}, {Name: "b", Fraction: 0.1, SpeedUp: 1.5}},
		{{Name: "c", Fraction: 0.3, SpeedUp: 10}},
	}
	covered, residual := GroupedTerms(groups)
	a, b, c := groups[0][0], groups[0][1], groups[1][0]
	if covered != a.Fraction+b.Fraction+c.Fraction || residual != b.Fraction/b.SpeedUp+c.Fraction/c.SpeedUp {
		t.Fatalf("GroupedTerms = (%v, %v)", covered, residual)
	}
	s, err := SpeedUpGrouped(groups)
	if err != nil || s != 1/((1-covered)+residual) {
		t.Fatalf("SpeedUpGrouped = %v, %v; want %v", s, err, 1/((1-covered)+residual))
	}
	groups[0][0].SpeedUp = math.NaN()
	if _, residual := GroupedTerms(groups); !math.IsNaN(residual) {
		t.Fatalf("a NaN member left residual %v", residual)
	}
}
