package experiments

import (
	"fmt"
	"io"
	"math"

	"cellport/internal/amdahl"
	"cellport/internal/marvel"
	"cellport/internal/parallel"
)

// EqnsResult holds the §4.2 worked examples and the §5.5 estimate-vs-
// measured validation.
type EqnsResult struct {
	// Worked Eq. 1 examples (paper: 1.0989 and 1.1098).
	Eq1At10x, Eq1At100x float64
	// Estimates from Eqs. 2/3 fed with OUR measured coverage and kernel
	// speed-ups, vs OUR measured per-image application speed-ups (both
	// over the PPE) — the paper validates its estimator the same way and
	// reports errors under 2%.
	Scenarios []ScenarioCheck
}

// ScenarioCheck is one scheduling scenario's estimate vs measurement.
type ScenarioCheck struct {
	Name      string
	Estimate  float64
	Measured  float64
	ErrorFrac float64
}

// Eqns regenerates the estimator validation.
func Eqns(cfg Config) (*EqnsResult, error) {
	res := &EqnsResult{}
	var err error
	if res.Eq1At10x, err = amdahl.SpeedUp1(amdahl.Kernel{Name: "k", Fraction: 0.10, SpeedUp: 10}); err != nil {
		return nil, err
	}
	if res.Eq1At100x, err = amdahl.SpeedUp1(amdahl.Kernel{Name: "k", Fraction: 0.10, SpeedUp: 100}); err != nil {
		return nil, err
	}

	// Measure kernel fractions and speed-ups once (SingleSPE round trips).
	ref, single, err := kernelRoundTrips(cfg, marvel.Optimized)
	if err != nil {
		return nil, err
	}
	cov := ref.KernelCoverage()
	speed := marvel.SpeedUps(ref.KernelTime, single.KernelTime)

	// Each row's estimate is Eq. 2 or 3 over its schedule's groups; its
	// measurement the per-image application speed-up over the PPE. The
	// two parallel-scenario runs are independent simulations, so the rows
	// go through the worker pool.
	scenarios := []struct {
		name string
		s    marvel.Scenario
	}{
		{"scenario1/single-SPE (Eq.2)", marvel.SingleSPE},
		{"scenario2/multi-SPE (Eq.3)", marvel.MultiSPE},
		{"scenario3/multi-SPE2 (Eq.3 lanes)", marvel.MultiSPE2},
	}
	res.Scenarios, err = parallel.RunIndexed(cfg.Parallel, len(scenarios), func(i int) (ScenarioCheck, error) {
		sc := scenarios[i]
		sched, err := sc.s.Schedule()
		if err != nil {
			return ScenarioCheck{}, err
		}
		groups, err := sched.Groups(cov, speed)
		if err != nil {
			return ScenarioCheck{}, err
		}
		est, err := amdahl.SpeedUpGrouped(groups)
		if err != nil {
			return ScenarioCheck{}, err
		}
		run := single
		if sc.s != marvel.SingleSPE {
			if run, err = cfg.runPorted(fmt.Sprintf("eqns/%s/n=1", sc.s), cfg.ported(cfg.Workload(1), sc.s, marvel.Optimized)); err != nil {
				return ScenarioCheck{}, err
			}
		}
		m := ref.PerImage.Seconds() / run.PerImage.Seconds()
		return ScenarioCheck{Name: sc.name, Estimate: est, Measured: m, ErrorFrac: math.Abs(est-m) / m}, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RenderEqns prints the estimator validation.
func RenderEqns(w io.Writer, r *EqnsResult) {
	fmt.Fprintf(w, "§4.2 worked examples (Eq. 1, Kfr=10%%):\n")
	fmt.Fprintf(w, "  Kspeedup=10  -> Sapp = %.4f (paper 1.0989)\n", r.Eq1At10x)
	fmt.Fprintf(w, "  Kspeedup=100 -> Sapp = %.4f (paper 1.1098)\n", r.Eq1At100x)
	fmt.Fprintf(w, "\nEstimates (Eqs. 2-3 with measured kernel data) vs measured app\n")
	fmt.Fprintf(w, "speed-ups over the PPE, per image (paper reports <2%% error):\n")
	fmt.Fprintf(w, "  %-34s %9s %9s %7s\n", "scenario", "estimate", "measured", "error")
	for _, s := range r.Scenarios {
		fmt.Fprintf(w, "  %-34s %8.2fx %8.2fx %6.2f%%\n", s.Name, s.Estimate, s.Measured, s.ErrorFrac*100)
	}
}
