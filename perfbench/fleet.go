package main

import (
	"fmt"

	"cellport/internal/fault"
	"cellport/internal/marvel"
	"cellport/internal/serve"
	"cellport/internal/sim"
)

// Fleet shape of the serving workloads built on the 352×240 grid.
const (
	fleetPools     = 4
	fleetBlades    = 2      // per pool
	fleetRequests  = 80_000 // per rung
	verifyRequests = 48     // full-fidelity stream where every dispatch is a 352×240 simulation
	sloGoodput     = 0.99
)

// ladder is the fixed set of offered-rate multiples of fleet capacity
// the fleet is driven at, doubling up to 1.0, the rung whose goodput
// and latency are reported. Flash crowds triple a diurnal peak of 1.6×,
// so the objective is met only on the lowest rungs.
var ladder = []float64{0.0625, 0.125, 0.25, 0.5, 1.0}

// fleetStreamSeed fixes the fleet's arrival stream. Where the flash
// crowds land decides how much of a stream is shed, and with it about a
// tenth of the loop's work, so a seeded stream would make seeds
// incomparable; the workload seed drives the blade fault plan instead.
const fleetStreamSeed = 7

// fleetShape is the routed fleet over a calibration: 4 pools × 2
// blades, estimator policy, diurnal plus flash-crowd load, autoscaler
// armed, and a blade crash/restart/stall plan drawn from the workload
// seed and spread over the stream, offered at rate × fleet capacity in
// absolute terms.
func fleetShape(base serve.Config, cal *serve.Calibration, rate float64, requests int) serve.Config {
	c := base
	c.Seed = fleetStreamSeed
	c.Cal = cal
	c.Pools = fleetPools
	c.Blades = fleetBlades
	c.Policy = serve.PolicyEstimator
	c.Load = &serve.RateModel{DiurnalAmp: 0.6, FlashCount: 2, FlashFactor: 3}
	c.Autoscale = &serve.Autoscale{}
	c.Requests = requests
	blades := fleetPools * fleetBlades
	c.OfferedRPS = rate * cal.PerBladeCapacity() * float64(blades)
	c.Faults = fault.SeededFleet(base.Seed, blades, sim.FromSeconds(float64(requests)/c.OfferedRPS))
	return c
}

// ledgerCheck is the six-term conservation every report must satisfy.
func ledgerCheck(r *serve.Report) check {
	sum := r.Served + r.ShedRejected + r.ShedExpired + r.ShedRerouted + r.ShedExhausted + r.ShedGlobal
	return pass("ledger", sum == r.Requests, "served+shed = %d, requests %d", sum, r.Requests)
}

// goodput is requests served on time over requests offered; every shed
// request counts as a miss.
func goodput(r *serve.Report) float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Served-r.Late) / float64(r.Requests)
}

// latencyValues reports a run's median and tail latency in virtual ms,
// quoting the tail at the highest percentile with ten samples beyond it.
func latencyValues(r *serve.Report, into map[string]float64) {
	into["latency_p50_vms"] = vms(r.LatencyP50)
	q, ok := tailQuantile(r.Served)
	switch {
	case !ok:
	case q == 0.99:
		into["latency_p99_vms"] = vms(r.LatencyP99)
	case q == 0.95:
		into["latency_p95_vms"] = vms(r.LatencyP95)
	}
}

func vms(d sim.Duration) float64 { return d.Seconds() * 1e3 }

// serveRun runs one serving configuration as a layer call, checks the
// ledger and that the report's digest repeats under key, and returns
// the report with its digest.
func serveRun(b *bench, key string, c serve.Config) (*serve.Report, string, error) {
	var rep *serve.Report
	err := b.layer("serve.Run", func() (err error) {
		rep, err = serve.Run(c)
		return err
	})
	if err != nil {
		b.chk.fail(key, err)
		return nil, "", err
	}
	d, same := b.chk.digest(key, rep)
	b.chk.op(key, ledgerCheck(rep), same)
	return rep, d, nil
}

// fleetLadder runs the routed fleet at every rung of the ladder.
type fleetLadder struct{ paperGrid }

func newFleetLadder(b *bench) *fleetLadder { return &fleetLadder{newPaperGrid(b)} }

func (w *fleetLadder) rep(b *bench, traced bool) (repOut, error) {
	vals := map[string]float64{}
	var rungs []rung
	requests := 0
	wall, err := b.m.time(kindRep, "rep", func() error {
		for _, rate := range ladder {
			c := fleetShape(w.base, w.cal, rate, fleetRequests)
			c.Instrument = traced
			var rep *serve.Report
			_, err := b.phase(fmt.Sprintf("rung %g", rate), func() (err error) {
				rep, _, err = serveRun(b, fmt.Sprintf("fleet rung %g", rate), c)
				return err
			})
			if err != nil {
				return err
			}
			requests += rep.Requests
			rungs = append(rungs, rung{Rate: rate, Met: goodput(rep) >= sloGoodput})
			if rate == 1.0 {
				vals["goodput_frac"] = goodput(rep)
				latencyValues(rep, vals)
			}
		}
		return nil
	})
	if err != nil {
		return repOut{}, err
	}
	vals["host_requests_per_s"] = float64(requests) / wall.Seconds()
	vals["max_rate_at_slo"] = maxRateAtSLO(rungs)
	return repOut{ops: float64(requests), wall: wall, values: vals}, nil
}

// verifiedServe is the 16-blade bursty full-fidelity scenario: every
// dispatch re-runs the machine simulation and must match the table.
type verifiedServe struct {
	base serve.Config
	cal  *serve.Calibration
	// tableDigest is the digest of the same run on the table only; full
	// fidelity must reproduce it byte for byte.
	tableDigest string
}

// verifiedStreamSeed is the arrival-stream seed of the scenario this
// workload reproduces (BenchmarkServeSeq). The stream is kept fixed so
// every workload seed verifies the same dispatch schedule; the seed
// varies the frames every nested simulation processes.
const verifiedStreamSeed = 7

// verifiedRequests sizes the stream so that more than 1,000 requests
// are served at rate 2 with bursts of 16 (most of a bursty overload is
// rejected at admission): p99 then has ten samples beyond it.
const verifiedRequests = 5_000

func newVerifiedServe(b *bench) *verifiedServe {
	return &verifiedServe{base: serve.Config{
		Blades:       16,
		MaxQueue:     8,
		MaxBatch:     3,
		Requests:     verifiedRequests,
		Rate:         2,
		Burst:        16,
		Deadline:     -1,
		Seed:         verifiedStreamSeed,
		Frame:        marvel.Workload{W: 352, H: 96, Seed: frameSeed(b.seed)},
		Variant:      marvel.Optimized,
		FullFidelity: true,
		Parallel:     b.procs,
		Shards:       b.procs,
	}}
}

// setup calibrates and records the table-only report the full-fidelity
// runs must reproduce.
func (w *verifiedServe) setup(b *bench) error {
	cal, err := calibrate(b, w.base)
	if err != nil {
		return err
	}
	w.cal = cal
	_, w.tableDigest, err = serveRun(b, "verified table-only", w.loopConfig())
	return err
}

func (w *verifiedServe) rep(b *bench, traced bool) (repOut, error) {
	c := w.verifyConfig()
	c.Instrument = traced
	var rep *serve.Report
	var d string
	wall, err := b.m.time(kindRep, "rep", func() error {
		_, err := b.phase("serve", func() (err error) {
			rep, d, err = serveRun(b, "verified full-fidelity", c)
			return err
		})
		return err
	})
	if err != nil {
		return repOut{}, err
	}
	b.chk.op("verified full-fidelity",
		pass("full-fidelity", d == w.tableDigest, "full-fidelity report differs from the table-only one"))
	vals := map[string]float64{
		"host_requests_per_s": float64(rep.Served) / wall.Seconds(),
		"goodput_frac":        goodput(rep),
		"served":              float64(rep.Served),
	}
	latencyValues(rep, vals)
	return repOut{ops: float64(rep.Served), wall: wall, values: vals}, nil
}

func (w *verifiedServe) calibration() (serve.Config, *serve.Calibration) { return w.base, w.cal }

func (w *verifiedServe) loopConfig() serve.Config {
	c := w.verifyConfig()
	c.FullFidelity = false
	return c
}

func (w *verifiedServe) verifyConfig() serve.Config {
	c := w.base
	c.Cal = w.cal
	return c
}
