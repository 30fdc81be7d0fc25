package experiments

import (
	"fmt"
	"io"

	"cellport/internal/serve"
)

// FleetConfig sizes the fleet-scale serving experiment (paperbench
// -exp fleet). DefaultConfig holds its defaults.
type FleetConfig struct {
	// Pools is the number of blade pools, at least 1; each pool holds
	// the serve experiment's blade count.
	Pools int
	// Autoscale arms the virtual-time autoscaler.
	Autoscale bool
	// Flash adds seeded flash-crowd windows on top of the diurnal
	// sinusoid.
	Flash bool
}

// FleetResult reports the fleet experiment: the routed, optionally
// autoscaled fleet against a static single-pool baseline consuming the
// byte-identical arrival stream (the offered rate is pinned in absolute
// terms so partitioning the capacity cannot change the stream).
type FleetResult struct {
	// Pools and BladesPerPool record the fleet shape that ran.
	Pools         int `json:"pools"`
	BladesPerPool int `json:"blades_per_pool"`

	Fleet  *serve.Report `json:"fleet"`
	Single *serve.Report `json:"single"`

	// Goodput is requests served on time. Ratio is fleet over single:
	// the capacity the router and pools unlock on the shared stream.
	GoodputFleet  int     `json:"goodput_fleet"`
	GoodputSingle int     `json:"goodput_single"`
	GoodputRatio  float64 `json:"goodput_ratio"`
}

// FleetExp runs the fleet-scale serving experiment: Pools pools of
// blades behind the first-fit router (with estimator override)
// under a diurnal + flash-crowd stream, the autoscaler optionally
// draining pools through the lifecycle machinery off-peak — against a
// static single-pool run on the identical absolute-rate stream.
func FleetExp(cfg Config) (*FleetResult, error) {
	fc := cfg.Fleet
	if fc.Pools < 1 {
		return nil, &serve.ConfigError{Field: "Fleet.Pools", Value: fc.Pools, Reason: "a fleet needs at least one pool"}
	}
	base, err := cfg.serveBase()
	if err != nil {
		return nil, err
	}
	if base.Cal, err = serve.Calibrate(base); err != nil {
		return nil, err
	}
	base.Policy = serve.PolicyEstimator
	base.Pools = fc.Pools
	load := &serve.RateModel{DiurnalAmp: 0.6}
	if fc.Flash {
		load.FlashCount = 2
		load.FlashFactor = 3
	}
	base.Load = load
	if fc.Autoscale {
		base.Autoscale = &serve.Autoscale{}
	}
	// Pin the offered rate in absolute terms at Rate× the whole fleet's
	// capacity: the single-pool baseline then consumes the byte-identical
	// stream instead of a stream rescaled to its smaller capacity.
	total := base.Blades * fc.Pools
	base.OfferedRPS = base.Rate * base.Cal.PerBladeCapacity() * float64(total)
	base.Rate = 0

	res := &FleetResult{Pools: fc.Pools, BladesPerPool: base.Blades}
	runOne := func(label string, c serve.Config) (*serve.Report, error) {
		rep, err := serve.Run(c)
		if err != nil {
			return nil, err
		}
		collectServe(cfg.Collect, "fleet/"+label, rep)
		return rep, nil
	}
	if res.Fleet, err = runOne("fleet", base); err != nil {
		return nil, err
	}
	single := base
	single.Pools = 0
	single.Autoscale = nil
	if res.Single, err = runOne("single", single); err != nil {
		return nil, err
	}

	res.GoodputFleet = res.Fleet.Served - res.Fleet.Late
	res.GoodputSingle = res.Single.Served - res.Single.Late
	if res.GoodputSingle > 0 {
		res.GoodputRatio = float64(res.GoodputFleet) / float64(res.GoodputSingle)
	}
	return res, nil
}

// RenderFleet prints the fleet experiment: the per-pool breakdown, the
// autoscaler's trajectory, and the fleet-vs-single-pool comparison.
func RenderFleet(w io.Writer, r *FleetResult) {
	f := r.Fleet
	fmt.Fprintf(w, "Fleet-scale serving — %d pools × %d blades, offered %.1f rps (%.1f× fleet capacity), deadline %s\n",
		r.Pools, r.BladesPerPool, f.OfferedRPS, f.RateMultiple, f.Deadline)
	if fs := f.Fleet; fs != nil {
		fmt.Fprintf(w, "autoscaler: %d scale-ups, %d scale-downs; active pools %d..%d (final %d); router overrides %d\n",
			fs.ScaleUps, fs.ScaleDowns, fs.ActiveMin, fs.Pools, fs.ActiveFinal, fs.RouterOverrides)
		fmt.Fprintf(w, "%-6s %7s %7s %7s %7s\n", "pool", "blades", "active", "routed", "served")
		for _, ps := range fs.PerPool {
			fmt.Fprintf(w, "%-6d %7d %7v %7d %7d\n", ps.Pool, ps.Blades, ps.Active, ps.Routed, ps.Served)
		}
	}
	fmt.Fprintf(w, "%-10s %7s %5s %9s %9s %9s %9s %10s %9s %9s %9s\n",
		"run", "served", "late", "shed-rej", "shed-exp", "shed-rer", "shed-exh", "shed-glob", "p50", "p95", "p99")
	for _, row := range []struct {
		name string
		rep  *serve.Report
	}{{"fleet", r.Fleet}, {"single", r.Single}} {
		rep := row.rep
		fmt.Fprintf(w, "%-10s %7d %5d %9d %9d %9d %9d %10d %9s %9s %9s\n",
			row.name, rep.Served, rep.Late, rep.ShedRejected, rep.ShedExpired,
			rep.ShedRerouted, rep.ShedExhausted, rep.ShedGlobal, rep.LatencyP50, rep.LatencyP95, rep.LatencyP99)
	}
	fmt.Fprintf(w, "ledger: served %d + rejected %d + expired %d + rerouted %d + exhausted %d + global %d = %d requests\n",
		f.Served, f.ShedRejected, f.ShedExpired, f.ShedRerouted, f.ShedExhausted, f.ShedGlobal, f.Requests)
	fmt.Fprintf(w, "goodput (served on time): fleet %d vs single pool %d (%.2f×)\n",
		r.GoodputFleet, r.GoodputSingle, r.GoodputRatio)
}
