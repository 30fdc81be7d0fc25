// Package amdahl implements the paper's §4.2 performance estimator: the
// Amdahl's-law sanity-check equations that predict whole-application
// speed-up from per-kernel coverage fractions and per-kernel speed-ups,
// for the sequential (Fig. 4b) and grouped-parallel (Fig. 4c) schedules.
//
//	Eq. 1: one kernel.
//	Eq. 2: n kernels executed sequentially.
//	Eq. 3: n kernels in G groups; kernels within a group run in parallel,
//	       groups run sequentially; a group costs its slowest member.
//
// The estimator is what lets a porting effort decide whether optimizing a
// kernel from 10× to 100× is worth it before doing the work (it usually
// is not when the kernel covers 10% of the runtime: 1.0989 vs 1.1098).
package amdahl

import (
	"fmt"
	"math"
)

// Kernel describes one offloaded kernel for estimation purposes.
type Kernel struct {
	// Name identifies the kernel in reports.
	Name string
	// Fraction is Kfr: the kernel's share of original application
	// execution time, in (0, 1].
	Fraction float64
	// SpeedUp is Kspeed-up: the kernel's speed-up over its original
	// (PPE) execution, > 0.
	SpeedUp float64
}

func (k Kernel) validate() error {
	if k.Fraction <= 0 || k.Fraction > 1 {
		return fmt.Errorf("amdahl: kernel %q fraction %v outside (0,1]", k.Name, k.Fraction)
	}
	if k.SpeedUp <= 0 || math.IsNaN(k.SpeedUp) || math.IsInf(k.SpeedUp, 0) {
		return fmt.Errorf("amdahl: kernel %q speed-up %v must be positive and finite", k.Name, k.SpeedUp)
	}
	return nil
}

// SpeedUp1 evaluates Eq. 1 for a single kernel:
//
//	Sapp = 1 / ((1-Kfr) + Kfr/Kspeedup)
func SpeedUp1(k Kernel) (float64, error) {
	if err := k.validate(); err != nil {
		return 0, err
	}
	return 1 / ((1 - k.Fraction) + k.Fraction/k.SpeedUp), nil
}

// SpeedUpSequential evaluates Eq. 2 for kernels executed one after the
// other (Fig. 4b):
//
//	Sapp = 1 / ((1-ΣKfr) + Σ Kfr_i/Kspeedup_i)
func SpeedUpSequential(kernels []Kernel) (float64, error) {
	if len(kernels) == 0 {
		return 0, fmt.Errorf("amdahl: no kernels")
	}
	var covered, residual float64
	for _, k := range kernels {
		if err := k.validate(); err != nil {
			return 0, err
		}
		covered += k.Fraction
		residual += k.Fraction / k.SpeedUp
	}
	if covered > 1+1e-9 {
		return 0, fmt.Errorf("amdahl: kernel fractions sum to %v > 1", covered)
	}
	if covered > 1 {
		covered = 1
	}
	return 1 / ((1 - covered) + residual), nil
}

// Group is a set of kernels scheduled to run in parallel on distinct SPEs.
type Group []Kernel

// SpeedUpGrouped evaluates Eq. 3 for kernels organized in sequentially
// executed groups whose members run in parallel (Fig. 4c):
//
//	Sapp = 1 / ((1-ΣKfr) + Σ_groups max_k (Kfr_k/Kspeedup_k))
func SpeedUpGrouped(groups []Group) (float64, error) {
	if len(groups) == 0 {
		return 0, fmt.Errorf("amdahl: no groups")
	}
	for gi, g := range groups {
		if len(g) == 0 {
			return 0, fmt.Errorf("amdahl: group %d is empty", gi)
		}
		for _, k := range g {
			if err := k.validate(); err != nil {
				return 0, err
			}
		}
	}
	covered, residual := GroupedTerms(groups)
	if covered > 1+1e-9 {
		return 0, fmt.Errorf("amdahl: kernel fractions sum to %v > 1", covered)
	}
	if covered > 1 {
		covered = 1
	}
	return 1 / ((1 - covered) + residual), nil
}

// GroupedTerms returns the two sums of Eq. 3: covered is ΣKfr and
// residual is Σ_groups max_k (Kfr_k/Kspeedup_k), the groups' share of
// the original run time. It validates nothing, so a NaN term (a kernel
// without coverage, whose speed-up is 0/0) makes residual NaN.
func GroupedTerms(groups []Group) (covered, residual float64) {
	for _, g := range groups {
		groupMax := 0.0
		for _, k := range g {
			covered += k.Fraction
			groupMax = max(groupMax, k.Fraction/k.SpeedUp)
		}
		residual += groupMax
	}
	return covered, residual
}

// UpperBound returns the asymptotic speed-up limit for the given total
// kernel coverage (all kernels infinitely fast): 1/(1-ΣKfr).
func UpperBound(kernels []Kernel) float64 {
	var covered float64
	for _, k := range kernels {
		covered += k.Fraction
	}
	if covered >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - covered)
}
