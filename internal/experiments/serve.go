package experiments

import (
	"cmp"
	"fmt"
	"io"
	"math"

	"cellport/internal/fault"
	"cellport/internal/marvel"
	"cellport/internal/serve"
	"cellport/internal/sim"
)

// ServeConfig sizes the serving-layer experiment (paperbench -exp serve).
// DefaultConfig holds its defaults; a value outside what serve.Config
// accepts is rejected by serve.Config.Validate.
type ServeConfig struct {
	// Blades is the blade-pool size; 0 selects the experiment's own
	// count (ServeBlades, or ChaosBlades for the chaos experiment).
	Blades int
	// Rate is the offered load as a multiple of the pool's estimated
	// capacity; it must be positive.
	Rate float64
	// Burst is the mean arrival burst size.
	Burst float64
	// DeadlineMS is the per-request virtual deadline in milliseconds:
	// 0 selects the automatic deadline, negative disables deadlines.
	DeadlineMS float64
	// Seed drives the arrival stream.
	Seed uint64
}

// The blade counts a zero ServeConfig.Blades selects: ServeBlades per
// pool in the serve, fleet and race experiments, ChaosBlades in chaos.
const ServeBlades, ChaosBlades = 3, 8

// Deadline converts DeadlineMS to serve.Config.Deadline (0 automatic,
// negative none). Arrival stamps stop at half the int64 femtosecond
// range, so a deadline must be finite and at most a quarter of it
// (about 38 minutes) to add to any of them; else it is a ConfigError.
// So is a positive deadline under half a femtosecond, which would round
// to 0 and select the automatic deadline.
func (sc ServeConfig) Deadline() (sim.Duration, error) {
	const limit = sim.Duration(math.MaxInt64 / 4)
	switch ms := sc.DeadlineMS; {
	case math.IsInf(ms, -1) || !(ms/1000 <= limit.Seconds()):
		return 0, &serve.ConfigError{Field: "Serve.DeadlineMS", Value: ms,
			Reason: fmt.Sprintf("deadline must be finite and at most %.0f ms", limit.Seconds()*1000)}
	case ms > 0:
		if d := sim.FromSeconds(ms / 1000); d > 0 {
			return d, nil
		}
		return 0, &serve.ConfigError{Field: "Serve.DeadlineMS", Value: ms,
			Reason: "a positive deadline must be at least half a femtosecond (5e-13 ms)"}
	case ms < 0:
		return -1, nil
	}
	return 0, nil
}

// ServeResult compares the two admission policies over one shared
// calibration and the identical arrival stream.
type ServeResult struct {
	Estimator  *serve.Report `json:"estimator"`
	RoundRobin *serve.Report `json:"round_robin"`
}

// serveBase assembles and validates the serve.Config for this experiment
// configuration (shared with the benchmark harness and tests so every
// entry point serves the same stream).
func (c Config) serveBase() (serve.Config, error) {
	sc := c.Serve
	if sc.Rate == 0 { // fleet and chaos divide by it; serve.Config would read its own default
		return serve.Config{}, &serve.ConfigError{Field: "Serve.Rate", Value: 0.0, Reason: "offered-load multiple must be positive"}
	}
	deadline, err := sc.Deadline()
	if err != nil {
		return serve.Config{}, err
	}
	frame := c.Workload(1)
	base := serve.Config{
		Blades:        cmp.Or(sc.Blades, ServeBlades),
		Rate:          sc.Rate,
		Burst:         sc.Burst,
		TallFrac:      0.25,
		Seed:          sc.Seed,
		Deadline:      deadline,
		Frame:         frame,
		Variant:       marvel.Optimized,
		MachineConfig: MachineConfig(),
		Artifacts:     c.artifacts(),
		Watchdog:      c.Watchdog,
		Parallel:      c.Parallel,
		FullFidelity:  c.FullSim,
		Instrument:    c.Collect != nil,
	}
	if c.Quick {
		base.Requests, base.MaxBatch, base.MaxQueue = 64, 3, 6
	} else {
		base.Requests, base.MaxBatch, base.MaxQueue = 256, 4, 8
	}
	if c.FaultSpec != "" {
		plan, err := fault.Parse(c.FaultSpec)
		if err != nil {
			return serve.Config{}, err
		}
		base.Faults = plan
	} else if c.FaultSeed != 0 {
		base.Faults = fault.Seeded(c.FaultSeed, base.MachineConfig.NumSPEs)
	}
	// Validate before any caller calibrates: a bad config costs no
	// calibration, and the error names the field the caller set (fleet
	// later folds Rate into OfferedRPS, which a bad rate would then be
	// reported as).
	if err := base.Validate(); err != nil {
		return serve.Config{}, err
	}
	return base, nil
}

// ServeExp runs the multi-blade serving experiment: one calibration, then
// the identical seeded request stream served under the estimator-driven
// policy and under plain round-robin. With a collector armed, every
// blade's trace and metrics land under serve/<policy>/bladeN (one Chrome
// trace process per blade).
func ServeExp(cfg Config) (*ServeResult, error) {
	base, err := cfg.serveBase()
	if err != nil {
		return nil, err
	}
	if base.Cal, err = serve.Calibrate(base); err != nil {
		return nil, err
	}

	res := &ServeResult{}
	for _, p := range []struct {
		policy serve.Policy
		out    **serve.Report
	}{{serve.PolicyEstimator, &res.Estimator}, {serve.PolicyRoundRobin, &res.RoundRobin}} {
		c := base
		c.Policy = p.policy
		rep, err := serve.Run(c)
		if err != nil {
			return nil, err
		}
		*p.out = rep
		collectServe(cfg.Collect, "serve/"+rep.Policy, rep)
	}
	return res, nil
}

// RenderServe prints the policy comparison.
func RenderServe(w io.Writer, r *ServeResult) {
	e := r.Estimator
	fmt.Fprintf(w, "Serving layer — %d blades, offered %.1f rps (%.1f× capacity), deadline %s\n",
		e.Blades, e.OfferedRPS, e.RateMultiple, e.Deadline)
	fmt.Fprintf(w, "%-14s %9s %7s %5s %9s %9s %7s %9s %9s %9s\n",
		"policy", "achieved", "served", "late", "shed-rej", "shed-exp", "batch", "p50", "p95", "p99")
	for _, rep := range []*serve.Report{r.Estimator, r.RoundRobin} {
		fmt.Fprintf(w, "%-14s %9.1f %7d %5d %9d %9d %7.2f %9s %9s %9s\n",
			rep.Policy, rep.AchievedRPS, rep.Served, rep.Late, rep.ShedRejected, rep.ShedExpired,
			rep.MeanBatch, rep.LatencyP50, rep.LatencyP95, rep.LatencyP99)
	}
	fmt.Fprintf(w, "estimator schemes: %v (fallbacks %d, conclusive %v)\n",
		e.SchemeBatches, e.PolicyFallbacks, e.EstimatorConclusive)
	good := func(rep *serve.Report) int { return rep.Served - rep.Late }
	fmt.Fprintf(w, "goodput (served on time): estimator %d vs round-robin %d\n", good(r.Estimator), good(r.RoundRobin))
}
