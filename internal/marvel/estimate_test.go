package marvel

import (
	"math"
	"reflect"
	"testing"

	"cellport/internal/amdahl"
)

// groupNames lists each group's member names.
func groupNames(groups []amdahl.Group) [][]string {
	var out [][]string
	for _, g := range groups {
		var names []string
		for _, k := range g {
			names = append(names, k.Name)
		}
		out = append(out, names)
	}
	return out
}

// estimatorInputs is a plausible coverage and speed-up set (the Table 1
// targets).
func estimatorInputs() (cov, speed map[KernelID]float64) {
	cov = map[KernelID]float64{KCH: 0.08, KCC: 0.54, KTX: 0.06, KEH: 0.28, KCD: 0.02}
	speed = map[KernelID]float64{KCH: 53.67, KCC: 52.23, KTX: 15.99, KEH: 65.94, KCD: 10.80}
	return cov, speed
}

func TestScheduleGroups(t *testing.T) {
	cov, speed := estimatorInputs()
	lanes := [][]string{{"CHExtract+det", "CCExtract+det", "TXExtract+det", "EHExtract+det"}}
	tests := []struct {
		s    Scenario
		want [][]string
	}{
		{SingleSPE, [][]string{{"CHExtract"}, {"CCExtract"}, {"TXExtract"}, {"EHExtract"}, {"ConceptDet"}}},
		{MultiSPE, [][]string{{"CHExtract", "CCExtract", "TXExtract", "EHExtract"}, {"ConceptDet"}}},
		{MultiSPE2, lanes},
		{Pipelined, lanes},
	}
	got := map[Scenario][]amdahl.Group{}
	for _, tc := range tests {
		sched, err := tc.s.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		groups, err := sched.Groups(cov, speed)
		if err != nil {
			t.Fatalf("%s: %v", tc.s, err)
		}
		if names := groupNames(groups); !reflect.DeepEqual(names, tc.want) {
			t.Errorf("%s groups %v, want %v", tc.s, names, tc.want)
		}
		if _, err := amdahl.SpeedUpGrouped(groups); err != nil {
			t.Errorf("%s: %v", tc.s, err)
		}
		got[tc.s] = groups
	}
	if !reflect.DeepEqual(got[Pipelined], got[MultiSPE2]) {
		t.Errorf("pipelined groups %v differ from multi-spe2's %v", got[Pipelined], got[MultiSPE2])
	}

	// Singleton groups are Eq. 2 bit for bit.
	var seq []amdahl.Kernel
	for _, id := range KernelIDs {
		seq = append(seq, amdahl.Kernel{Name: id.String(), Fraction: cov[id], SpeedUp: speed[id]})
	}
	eq2, err := amdahl.SpeedUpSequential(seq)
	if err != nil {
		t.Fatal(err)
	}
	eq3, err := amdahl.SpeedUpGrouped(got[SingleSPE])
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(eq2) != math.Float64bits(eq3) {
		t.Errorf("single-spe groups give %v, Eq. 2 gives %v", eq3, eq2)
	}

	// The lanes split detection by nominal operation share, so together
	// they cover exactly the five kernels.
	var lane, all float64
	for _, k := range got[MultiSPE2][0] {
		lane += k.Fraction
	}
	for _, id := range KernelIDs {
		all += cov[id]
	}
	if math.Abs(lane-all) > 1e-12 {
		t.Errorf("lane fractions sum to %v, want the kernels' coverage %v", lane, all)
	}
}

func TestScheduleGroupsRejectsBadSpeedUp(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		for _, id := range []KernelID{KCC, KCD} {
			for _, s := range []Scenario{SingleSPE, MultiSPE, MultiSPE2, Pipelined} {
				cov, speed := estimatorInputs()
				speed[id] = bad
				sched, err := s.Schedule()
				if err != nil {
					t.Fatal(err)
				}
				if groups, err := sched.Groups(cov, speed); err == nil {
					t.Errorf("%s with %s speed-up %v: groups %v, want an error", s, id, bad, groups)
				}
			}
		}
	}
}
