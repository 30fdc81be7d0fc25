package serve

import (
	"fmt"

	"cellport/internal/amdahl"
	"cellport/internal/marvel"
	"cellport/internal/parallel"
	"cellport/internal/sim"
)

// Scheme selects the scheduling scheme a batch is dispatched under — the
// §4 job- vs data-distribution choice the paper's estimator exists to
// make.
type Scheme int

const (
	// SchemeJob is job distribution: each kernel resident on its own SPE
	// (extractions on SPE0-3, replicated detections on SPE4-7), one image
	// at a time — marvel.MultiSPE2.
	SchemeJob Scheme = iota
	// SchemeData is data distribution across the batch: the same kernel
	// placement, but the PPE streams the batch's images through the SPEs
	// with double-buffered preprocessing so image i+1's preprocessing
	// overlaps image i's SPE work — marvel.Pipelined.
	SchemeData
	numSchemes
)

func (s Scheme) String() string {
	if s == SchemeJob {
		return "job-dist"
	}
	return "data-dist"
}

func (s Scheme) scenario() marvel.Scenario {
	if s == SchemeJob {
		return marvel.MultiSPE2
	}
	return marvel.Pipelined
}

// svcKey identifies one measured dispatch configuration.
type svcKey struct {
	Scheme Scheme
	Tall   bool
	K      int
}

// svc is one measured dispatch: the steady-state service time of a
// k-image batch, the one-time warm-up (model load) charged on a blade's
// first dispatch, and whether the run's supervision loop had to degrade
// (retries, redispatches or PPE fallbacks under an armed fault plan).
type svc struct {
	Service  sim.Duration
	Warmup   sim.Duration
	Degraded bool
	DegTime  sim.Duration
}

// measuredSvc reads one dispatch record off a ported run.
func measuredSvc(p *marvel.PortedResult) svc {
	s := svc{Service: p.Total - p.OneTime, Warmup: p.OneTime}
	if rep := p.Faults; rep != nil {
		s.Degraded = rep.Retries > 0 || rep.Redispatches > 0 || rep.Fallbacks > 0
		s.DegTime = rep.DegradedTime
	}
	return s
}

// String prints the durations in exact femtoseconds: sim.Duration's own
// String rounds to 6 significant digits, which would hide a small
// divergence between two records.
func (s svc) String() string {
	return fmt.Sprintf("{Service:%dfs Warmup:%dfs Degraded:%v DegTime:%dfs}",
		int64(s.Service), int64(s.Warmup), s.Degraded, int64(s.DegTime))
}

// geomCal holds one frame geometry's estimator inputs and outputs.
type geomCal struct {
	// NonKernel is the per-image PPE time outside the five kernels
	// (preprocessing, glue) — the part no SPE scheme can remove.
	NonKernel sim.Duration
	// LaneMax is the estimated per-image SPE time of the job-distribution
	// schedule: the slowest extraction+detection lane.
	LaneMax sim.Duration
	// Conclusive reports whether the estimate is usable (valid kernel
	// fractions and speed-ups); inconclusive geometries make the policy
	// fall back to round-robin.
	Conclusive bool
}

// Calibration is the measured service table plus the Eqs. 1-3 estimator
// state one serve run (or a pair of runs comparing policies) needs. It is
// a pure function of the serve configuration's workload-shaping fields,
// so two runs sharing a Calibration see identical virtual-time behaviour
// to runs that each calibrated privately.
type Calibration struct {
	maxBatch int
	// services is the dense (geometry, scheme, k) table: see slot.
	// Entries of a geometry the run did not calibrate stay zero.
	services []svc
	// geoms holds the estimator state per geometry (geomIndex); nil for
	// a geometry the run did not calibrate.
	geoms [numGeoms]*geomCal
	// perBlade is the estimated per-blade capacity in requests per
	// virtual second at full batch size under the best measured scheme.
	perBlade float64
}

// Conclusive reports whether every calibrated geometry produced a usable
// Eq. 3 estimate.
func (c *Calibration) Conclusive() bool {
	found := false
	for _, g := range c.geoms {
		if g == nil {
			continue
		}
		if !g.Conclusive {
			return false
		}
		found = true
	}
	return found
}

// PerBladeCapacity returns the estimated per-blade throughput ceiling
// (requests per virtual second, standard geometry, full batches).
func (c *Calibration) PerBladeCapacity() float64 { return c.perBlade }

// numGeoms counts the frame geometries a calibration can hold: standard
// and tall.
const numGeoms = 2

// geomIndex is a geometry's index in Calibration.geoms and the outer
// dimension of the service table: 0 standard, 1 tall.
func geomIndex(tall bool) int {
	if tall {
		return 1
	}
	return 0
}

// slot returns k's index in the dense service table, laid out
// geometry-major, then scheme, then batch size k-1; -1 when k lies
// outside the table (no such scheme, or k outside 1..maxBatch).
func (c *Calibration) slot(k svcKey) int {
	if k.Scheme < 0 || k.Scheme >= numSchemes || k.K < 1 || k.K > c.maxBatch {
		return -1
	}
	return (geomIndex(k.Tall)*int(numSchemes)+int(k.Scheme))*c.maxBatch + k.K - 1
}

// service returns the measured dispatch record for a key: total over
// (scheme, calibrated geometry, 1..maxBatch) by construction, and the
// zero record for any other key.
func (c *Calibration) service(k svcKey) svc {
	if i := c.slot(k); i >= 0 {
		return c.services[i]
	}
	return svc{}
}

// MaxBatch reports the largest batch size the table was measured at.
func (c *Calibration) MaxBatch() int { return c.maxBatch }

// MeasuredService returns the calibrated (simulated) steady-state
// service time for a k-image batch under a scheme and geometry — the
// table entry the serving loop's arithmetic uses. Zero means the point
// was not calibrated. Exported for the estimator-race harness, which
// compares these virtual-time predictions against real executions of
// the same points.
func (c *Calibration) MeasuredService(s Scheme, tall bool, k int) sim.Duration {
	return c.service(svcKey{Scheme: s, Tall: tall, K: k}).Service
}

// EstimatedService returns the Eqs. 1-3 estimate for the same point
// (zero when the geometry's estimator fit was inconclusive, and for a
// point outside the table).
func (c *Calibration) EstimatedService(s Scheme, tall bool, k int) sim.Duration {
	if c.slot(svcKey{Scheme: s, Tall: tall, K: k}) < 0 {
		return 0
	}
	return c.estService(s, tall, k)
}

// estService is the estimator's predicted service time for a k-image
// batch under a scheme: job distribution processes images back to back
// (Eq. 3 per image), data distribution overlaps PPE preprocessing of
// image i+1 with SPE work on image i, so only the first image pays both
// serially.
func (c *Calibration) estService(s Scheme, tall bool, k int) sim.Duration {
	g := c.geoms[geomIndex(tall)]
	if g == nil || !g.Conclusive {
		return 0
	}
	perImage := g.NonKernel + g.LaneMax
	if s == SchemeJob {
		return sim.Duration(k) * perImage
	}
	overlap := g.NonKernel
	if g.LaneMax > overlap {
		overlap = g.LaneMax
	}
	return perImage + sim.Duration(k-1)*overlap
}

// estBest returns the faster estimated scheme for a k-image batch and
// whether the choice is conclusive (estimates further apart than the
// estimator's resolution). Inconclusive choices fall back to the fixed
// job-distribution default.
func (c *Calibration) estBest(tall bool, k int) (Scheme, sim.Duration, bool) {
	job := c.estService(SchemeJob, tall, k)
	data := c.estService(SchemeData, tall, k)
	if job <= 0 || data <= 0 {
		return SchemeJob, 0, false
	}
	min, max, best := job, data, SchemeJob
	if data < job {
		min, max, best = data, job, SchemeData
	}
	// Estimates within 0.5% of each other count as a tie: the margin is a
	// resolution floor between the two schemes' estimates, not a bound on
	// the estimate's error against the measured table (perfbench's
	// est_error_pct reads 1.3-2%).
	if float64(max-min) < 0.005*float64(min) {
		return SchemeJob, job, false
	}
	return best, min, true
}

// Calibrate measures the dispatch service table (every scheme × geometry
// × batch size the loop can request) and fits the Eqs. 1-3 estimator
// from a PPE reference run and a single-SPE ported run per geometry. All
// simulations are independent and fan out over parallel.RunIndexed,
// bounded by the configured worker pool; the assembled table is
// byte-identical at any parallelism, and workcache hits/misses stay
// deterministic because the job set — not the execution order —
// determines which artifacts are built. The same holds
// for the kernel memo: the simulated kernels take their feature
// arithmetic from it, computing each distinct kernel input once, so its
// miss count is the number of distinct inputs at any parallelism.
func Calibrate(cfg Config) (*Calibration, error) {
	cfg = cfg.withDefaults()
	geoms := []bool{false}
	if cfg.TallFrac > 0 {
		geoms = append(geoms, true)
	}

	cal := &Calibration{
		maxBatch: cfg.MaxBatch,
		services: make([]svc, numGeoms*int(numSchemes)*cfg.MaxBatch),
	}

	// One flat job grid: per geometry a reference run and a single-SPE
	// calibration run, then every (scheme, geometry, batch size) point.
	type jobSpec struct {
		tall   bool
		kind   int // 0 = reference, 1 = single-SPE, 2 = service point
		scheme Scheme
		k      int
	}
	var jobs []jobSpec
	for _, tall := range geoms {
		jobs = append(jobs, jobSpec{tall: tall, kind: 0}, jobSpec{tall: tall, kind: 1})
		for s := Scheme(0); s < numSchemes; s++ {
			for k := 1; k <= cfg.MaxBatch; k++ {
				jobs = append(jobs, jobSpec{tall: tall, kind: 2, scheme: s, k: k})
			}
		}
	}
	type jobOut struct {
		ref    *marvel.ReferenceResult
		ported *marvel.PortedResult
	}
	outs, err := parallel.RunIndexed(cfg.Parallel, len(jobs), func(i int) (jobOut, error) {
		j := jobs[i]
		switch j.kind {
		case 0:
			ref, err := cfg.Artifacts.Reference(cfg.MachineConfig.PPEModel, cfg.workload(j.tall, 1))
			return jobOut{ref: ref}, err
		case 1:
			p, err := marvel.RunPorted(cfg.portedConfig(marvel.SingleSPE, j.tall, 1, false))
			return jobOut{ported: p}, err
		default:
			p, err := marvel.RunPorted(cfg.portedConfig(j.scheme.scenario(), j.tall, j.k, true))
			return jobOut{ported: p}, err
		}
	})
	if err != nil {
		return nil, fmt.Errorf("serve: calibration: %w", err)
	}

	refs := map[bool]*marvel.ReferenceResult{}
	singles := map[bool]*marvel.PortedResult{}
	for i, j := range jobs {
		switch j.kind {
		case 0:
			refs[j.tall] = outs[i].ref
		case 1:
			singles[j.tall] = outs[i].ported
		default:
			cal.services[cal.slot(svcKey{Scheme: j.scheme, Tall: j.tall, K: j.k})] = measuredSvc(outs[i].ported)
		}
	}
	for _, tall := range geoms {
		cal.geoms[geomIndex(tall)] = fitEstimator(refs[tall], singles[tall])
	}

	// Estimated per-blade capacity: full batches under the best measured
	// scheme at standard geometry.
	best := cal.MeasuredService(SchemeJob, false, cfg.MaxBatch)
	if d := cal.MeasuredService(SchemeData, false, cfg.MaxBatch); d < best {
		best = d
	}
	if best > 0 {
		cal.perBlade = float64(cfg.MaxBatch) / best.Seconds()
	}
	return cal, nil
}

// fitEstimator builds one geometry's Eq. 3 lane estimate from the
// measured kernel coverage (reference run) and kernel speed-ups
// (single-SPE round trips), exactly the §4.2 procedure: the
// job-distribution schedule's groups, each costing its slowest member.
// A builder error or a non-positive estimate leaves it inconclusive.
func fitEstimator(ref *marvel.ReferenceResult, single *marvel.PortedResult) *geomCal {
	g := &geomCal{}
	speed := map[marvel.KernelID]float64{}
	var kernelSum sim.Duration
	for _, id := range marvel.KernelIDs {
		speed[id] = ref.KernelTime[id].Seconds() / single.KernelTime[id].Seconds()
		kernelSum += ref.KernelTime[id]
	}
	g.NonKernel = max(ref.PerImage-kernelSum, 0)
	sched, err := SchemeJob.scenario().Schedule()
	if err != nil {
		return g
	}
	groups, err := sched.Groups(ref.KernelCoverage(), speed)
	if err != nil {
		return g
	}
	_, lanes := amdahl.GroupedTerms(groups)
	if !(lanes > 0) {
		return g // a NaN member (a zero-coverage lane) lands here too
	}
	g.LaneMax = sim.FromSeconds(lanes * ref.PerImage.Seconds())
	g.Conclusive = true
	return g
}
