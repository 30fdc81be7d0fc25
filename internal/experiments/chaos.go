package experiments

import (
	"cmp"
	"fmt"
	"io"

	"cellport/internal/fault"
	"cellport/internal/serve"
	"cellport/internal/sim"
)

// ChaosResult reports the blade-lifecycle experiment (-exp chaos): the
// default serve scenario under a seeded rolling-restart schedule,
// compared against a fault-free (fleet-wise) baseline over the identical
// calibration and arrival stream.
type ChaosResult struct {
	// Spec is the canonical plan of the chaos run (Parse-able;
	// reproduces the run). It includes any machine-level faults the
	// caller supplied; those also run in the baseline, so the comparison
	// isolates the fleet-level lifecycle cost.
	Spec string `json:"spec"`
	// Seed is the fleet-schedule seed (0 when the caller's -faults spec
	// already carried blade-level faults).
	Seed uint64 `json:"seed"`

	// Baseline serves the stream with only the machine-level subset of
	// the plan armed; Chaos adds the blade lifecycle schedule.
	Baseline *serve.Report `json:"baseline"`
	Chaos    *serve.Report `json:"chaos"`

	// Goodput is requests served on time. Ratio is chaos over baseline:
	// how much of the fleet's useful capacity survived the schedule.
	GoodputBaseline int     `json:"goodput_baseline"`
	GoodputChaos    int     `json:"goodput_chaos"`
	GoodputRatio    float64 `json:"goodput_ratio"`
}

// ChaosExp runs the fleet self-healing experiment: the serve scenario
// (on ChaosBlades unless Serve.Blades is set) under a deterministic
// blade-lifecycle schedule — the caller's -faults plan if it names
// blade-level faults, otherwise a seeded rolling-restart schedule
// (fault.SeededFleet) spanning the arrival stream — against a baseline
// carrying only the plan's machine-level subset.
func ChaosExp(cfg Config) (*ChaosResult, error) {
	cfg.Serve.Blades = cmp.Or(cfg.Serve.Blades, ChaosBlades)
	base, err := cfg.serveBase()
	if err != nil {
		return nil, err
	}
	if base.Cal, err = serve.Calibrate(base); err != nil {
		return nil, err
	}

	res := &ChaosResult{}
	plan := base.Faults
	if len(plan.FleetFaults()) == 0 {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = 1
		}
		// Span the schedule over the arrival stream's busy window so
		// every trigger lands while requests are still in flight.
		offered := base.Rate * base.Cal.PerBladeCapacity() * float64(base.Blades)
		span := sim.FromSeconds(float64(base.Requests) / offered)
		merged := &fault.Plan{}
		if mp := plan.MachineFaults(); mp != nil {
			merged.Faults = append(merged.Faults, mp.Faults...)
		}
		merged.Faults = append(merged.Faults, fault.SeededFleet(seed, base.Blades, span).Faults...)
		plan = merged
		res.Seed = seed
	}
	res.Spec = plan.String()

	runOne := func(label string, p *fault.Plan) (*serve.Report, error) {
		c := base
		c.Policy = serve.PolicyEstimator
		c.Faults = p
		rep, err := serve.Run(c)
		if err != nil {
			return nil, err
		}
		collectServe(cfg.Collect, "chaos/"+label, rep)
		return rep, nil
	}
	if res.Baseline, err = runOne("baseline", plan.MachineFaults()); err != nil {
		return nil, err
	}
	if res.Chaos, err = runOne("injected", plan); err != nil {
		return nil, err
	}

	res.GoodputBaseline = res.Baseline.Served - res.Baseline.Late
	res.GoodputChaos = res.Chaos.Served - res.Chaos.Late
	if res.GoodputBaseline > 0 {
		res.GoodputRatio = float64(res.GoodputChaos) / float64(res.GoodputBaseline)
	}
	return res, nil
}

// RenderChaos prints the lifecycle experiment.
func RenderChaos(w io.Writer, r *ChaosResult) {
	c := r.Chaos
	fmt.Fprintf(w, "Blade lifecycle & self-healing — %d blades, offered %.1f rps (%.1f× capacity), deadline %s\n",
		c.Blades, c.OfferedRPS, c.RateMultiple, c.Deadline)
	if r.Seed != 0 {
		fmt.Fprintf(w, "schedule (seed %d): %s\n", r.Seed, r.Spec)
	} else {
		fmt.Fprintf(w, "schedule: %s\n", r.Spec)
	}
	fmt.Fprintf(w, "lifecycle: %d crashes, %d restarts, %d stalls; %d re-routes\n",
		c.BladeCrashes, c.BladeRestarts, c.BladeStalls, c.Rerouted)
	fmt.Fprintf(w, "%-10s %7s %5s %9s %9s %9s %9s %9s %9s %9s\n",
		"run", "served", "late", "shed-rej", "shed-exp", "shed-rer", "shed-exh", "p50", "p95", "p99")
	for _, row := range []struct {
		name string
		rep  *serve.Report
	}{{"baseline", r.Baseline}, {"chaos", r.Chaos}} {
		rep := row.rep
		fmt.Fprintf(w, "%-10s %7d %5d %9d %9d %9d %9d %9s %9s %9s\n",
			row.name, rep.Served, rep.Late, rep.ShedRejected, rep.ShedExpired,
			rep.ShedRerouted, rep.ShedExhausted, rep.LatencyP50, rep.LatencyP95, rep.LatencyP99)
	}
	fmt.Fprintf(w, "ledger: served %d + rejected %d + expired %d + rerouted %d + exhausted %d = %d requests\n",
		c.Served, c.ShedRejected, c.ShedExpired, c.ShedRerouted, c.ShedExhausted, c.Requests)
	fmt.Fprintf(w, "blade health:")
	for _, bs := range c.PerBlade {
		fmt.Fprintf(w, " %d:%s", bs.Blade, bs.Health)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "goodput (served on time): baseline %d, chaos %d (%.1f%% retained)\n",
		r.GoodputBaseline, r.GoodputChaos, r.GoodputRatio*100)
}
