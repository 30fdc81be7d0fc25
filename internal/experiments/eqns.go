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
	speed := map[marvel.KernelID]float64{}
	var kernels []amdahl.Kernel
	for _, id := range marvel.KernelIDs {
		speed[id] = ref.KernelTime[id].Seconds() / single.KernelTime[id].Seconds()
		kernels = append(kernels, amdahl.Kernel{
			Name: id.String(), Fraction: cov[id], SpeedUp: speed[id],
		})
	}

	// Scenario 1 — Eq. 2, all kernels sequential.
	est1, err := amdahl.SpeedUpSequential(kernels)
	if err != nil {
		return nil, err
	}
	// Scenario 2 — Eq. 3: the four extractions in parallel, detection as
	// its own sequential group.
	var extracts amdahl.Group
	var detects amdahl.Group
	for _, k := range kernels {
		if k.Name == marvel.KCD.String() {
			detects = append(detects, k)
		} else {
			extracts = append(extracts, k)
		}
	}
	est2, err := amdahl.SpeedUpGrouped([]amdahl.Group{extracts, detects})
	if err != nil {
		return nil, err
	}
	// Scenario 3 — extraction+detection pipelines per feature: each lane
	// is extract_i followed by its share of detection; groups become one
	// parallel group of lane pseudo-kernels. Detection work splits by
	// nominal operation share.
	lane := amdahl.Group{}
	for _, id := range marvel.ExtractKernels {
		detShare := marvel.DetectShare(id)
		frac := cov[id] + cov[marvel.KCD]*detShare
		// Effective lane speed-up: lane original time / lane ported time.
		orig := cov[id] + cov[marvel.KCD]*detShare
		ported := cov[id]/speed[id] + cov[marvel.KCD]*detShare/speed[marvel.KCD]
		lane = append(lane, amdahl.Kernel{Name: id.String() + "+det", Fraction: frac, SpeedUp: orig / ported})
	}
	est3, err := amdahl.SpeedUpGrouped([]amdahl.Group{lane})
	if err != nil {
		return nil, err
	}

	// Measurements: per-image application speed-up over the PPE. The two
	// parallel-scenario runs are independent simulations, so they go
	// through the worker pool.
	scenarios := []struct {
		name string
		s    marvel.Scenario
		est  float64
	}{
		{"scenario1/single-SPE (Eq.2)", marvel.SingleSPE, est1},
		{"scenario2/multi-SPE (Eq.3)", marvel.MultiSPE, est2},
		{"scenario3/multi-SPE2 (Eq.3 lanes)", marvel.MultiSPE2, est3},
	}
	measured, err := parallel.RunIndexed(cfg.Parallel, len(scenarios), func(i int) (float64, error) {
		if scenarios[i].s == marvel.SingleSPE {
			return ref.PerImage.Seconds() / single.PerImage.Seconds(), nil
		}
		ported, err := cfg.runPorted(fmt.Sprintf("eqns/%s/n=1", scenarios[i].s), cfg.ported(cfg.Workload(1), scenarios[i].s, marvel.Optimized))
		if err != nil {
			return 0, err
		}
		return ref.PerImage.Seconds() / ported.PerImage.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scenarios {
		m := measured[i]
		res.Scenarios = append(res.Scenarios, ScenarioCheck{
			Name:      sc.name,
			Estimate:  sc.est,
			Measured:  m,
			ErrorFrac: math.Abs(sc.est-m) / m,
		})
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
