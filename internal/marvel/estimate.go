package marvel

import (
	"fmt"
	"math"

	"cellport/internal/amdahl"
	"cellport/internal/sim"
)

// SpeedUps is each kernel's speed-up from its time in base and in ported
// (for §4.2, a reference run's KernelTime over a single-SPE port's): the
// speed map Groups takes.
func SpeedUps(base, ported map[KernelID]sim.Duration) map[KernelID]float64 {
	speed := make(map[KernelID]float64, len(KernelIDs))
	for _, id := range KernelIDs {
		speed[id] = base[id].Seconds() / ported[id].Seconds()
	}
	return speed
}

// Groups maps the schedule onto the §4.2 estimator: the groups whose
// Eq. 3 value estimates the scenario's per-image speed-up over the PPE,
// from each kernel's coverage and single-SPE speed-up. Overlap puts the
// extractions in one parallel group; without it each kernel is its own
// group, which is Eq. 2 bit for bit. PerLane folds detection into the
// extractions as "<id>+det" lanes, each with its detectShare of it;
// without it detection is a group of its own, last. Kernels go in
// KernelID order, never launch order, which would move the sums' last
// bits; Buffers is outside the equations. A non-positive or non-finite
// speed-up is an error.
func (s Schedule) Groups(cov, speed map[KernelID]float64) ([]amdahl.Group, error) {
	var groups []amdahl.Group
	for _, id := range KernelIDs {
		if v := speed[id]; !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("marvel: %s speed-up %v must be positive and finite", id, v)
		}
	}
	for _, id := range ExtractKernels {
		k := amdahl.Kernel{Name: id.String(), Fraction: cov[id], SpeedUp: speed[id]}
		if s.PerLane {
			share := detectShare(id)
			frac := cov[id] + cov[KCD]*share
			ported := cov[id]/speed[id] + cov[KCD]*share/speed[KCD]
			k = amdahl.Kernel{Name: id.String() + "+det", Fraction: frac, SpeedUp: frac / ported}
		}
		if s.Overlap && len(groups) > 0 {
			groups[0] = append(groups[0], k) // the overlapped extractions
		} else {
			groups = append(groups, amdahl.Group{k})
		}
	}
	if !s.PerLane {
		groups = append(groups, amdahl.Group{{Name: KCD.String(), Fraction: cov[KCD], SpeedUp: speed[KCD]}})
	}
	return groups, nil
}
