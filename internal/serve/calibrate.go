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
	// RefPerImage is the PPE reference per-image processing time.
	RefPerImage sim.Duration
	// NonKernel is the per-image PPE time outside the five kernels
	// (preprocessing, glue) — the part no SPE scheme can remove.
	NonKernel sim.Duration
	// LaneMax is the slowest extraction+detection lane's estimated SPE
	// time, from the Eq. 3 lane construction.
	LaneMax sim.Duration
	// EstSpeedUp is the Eq. 3 whole-application speed-up estimate for the
	// job-distribution scheme.
	EstSpeedUp float64
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
	services map[svcKey]svc
	geoms    map[bool]*geomCal
	// perBlade is the estimated per-blade capacity in requests per
	// virtual second at full batch size under the best measured scheme.
	perBlade float64
}

// Conclusive reports whether every calibrated geometry produced a usable
// Eq. 3 estimate.
func (c *Calibration) Conclusive() bool {
	for _, g := range c.geoms {
		if !g.Conclusive {
			return false
		}
	}
	return len(c.geoms) > 0
}

// PerBladeCapacity returns the estimated per-blade throughput ceiling
// (requests per virtual second, standard geometry, full batches).
func (c *Calibration) PerBladeCapacity() float64 { return c.perBlade }

// service returns the measured dispatch record for a key; the key set is
// total over (scheme, seen geometry, 1..maxBatch) by construction.
func (c *Calibration) service(k svcKey) svc { return c.services[k] }

// MaxBatch reports the largest batch size the table was measured at.
func (c *Calibration) MaxBatch() int { return c.maxBatch }

// MeasuredService returns the calibrated (simulated) steady-state
// service time for a k-image batch under a scheme and geometry — the
// table entry the serving loop's arithmetic uses. Zero means the point
// was not calibrated. Exported for the estimator-race harness, which
// compares these virtual-time predictions against real executions of
// the same points.
func (c *Calibration) MeasuredService(s Scheme, tall bool, k int) sim.Duration {
	return c.services[svcKey{Scheme: s, Tall: tall, K: k}].Service
}

// EstimatedService returns the Eqs. 1-3 estimate for the same point
// (zero when the geometry's estimator fit was inconclusive).
func (c *Calibration) EstimatedService(s Scheme, tall bool, k int) sim.Duration {
	return c.estService(s, tall, k)
}

// estService is the estimator's predicted service time for a k-image
// batch under a scheme: job distribution processes images back to back
// (Eq. 3 per image), data distribution overlaps PPE preprocessing of
// image i+1 with SPE work on image i, so only the first image pays both
// serially.
func (c *Calibration) estService(s Scheme, tall bool, k int) sim.Duration {
	g := c.geoms[tall]
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
	// Within 0.5% the Eq. 3 estimate cannot distinguish the schemes (the
	// estimate's own error against the measured table is an order of
	// magnitude smaller, so this margin is conservative).
	if float64(max-min) < 0.005*float64(min) {
		return SchemeJob, job, false
	}
	return best, min, true
}

// detOpsShare apportions the detection kernel's time across the four
// feature lanes by nominal operation count (the Eq. 3 lane construction
// of §4.2).
func detOpsShare(n, dim int) float64 {
	total := float64(marvel.NumSVCH)*(3*float64(marvel.DimCH)+25) +
		float64(marvel.NumSVCC)*(3*float64(marvel.DimCC)+25) +
		float64(marvel.NumSVEH)*(3*float64(marvel.DimEH)+25) +
		float64(marvel.NumSVTX)*(3*float64(marvel.DimTX)+25)
	return float64(n) * (3*float64(dim) + 25) / total
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
		services: map[svcKey]svc{},
		geoms:    map[bool]*geomCal{},
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
			cal.services[svcKey{Scheme: j.scheme, Tall: j.tall, K: j.k}] = measuredSvc(outs[i].ported)
		}
	}
	for _, tall := range geoms {
		cal.geoms[tall] = fitEstimator(refs[tall], singles[tall])
	}

	// Estimated per-blade capacity: full batches under the best measured
	// scheme at standard geometry.
	best := cal.services[svcKey{Scheme: SchemeJob, Tall: false, K: cfg.MaxBatch}].Service
	if d := cal.services[svcKey{Scheme: SchemeData, Tall: false, K: cfg.MaxBatch}].Service; d < best {
		best = d
	}
	if best > 0 {
		cal.perBlade = float64(cfg.MaxBatch) / best.Seconds()
	}
	return cal, nil
}

// fitEstimator builds one geometry's Eq. 3 lane estimate from the
// measured kernel coverage (reference run) and kernel speed-ups
// (single-SPE round trips), exactly the §4.2 procedure.
func fitEstimator(ref *marvel.ReferenceResult, single *marvel.PortedResult) *geomCal {
	g := &geomCal{RefPerImage: ref.PerImage}
	cov := ref.KernelCoverage()
	speed := map[marvel.KernelID]float64{}
	var kernelSum sim.Duration
	for _, id := range marvel.KernelIDs {
		if single.KernelTime[id] <= 0 {
			return g // no usable speed-up: inconclusive
		}
		speed[id] = ref.KernelTime[id].Seconds() / single.KernelTime[id].Seconds()
		kernelSum += ref.KernelTime[id]
	}
	g.NonKernel = ref.PerImage - kernelSum
	if g.NonKernel < 0 {
		g.NonKernel = 0
	}
	detShare := map[marvel.KernelID]float64{
		marvel.KCH: detOpsShare(marvel.NumSVCH, marvel.DimCH),
		marvel.KCC: detOpsShare(marvel.NumSVCC, marvel.DimCC),
		marvel.KEH: detOpsShare(marvel.NumSVEH, marvel.DimEH),
		marvel.KTX: detOpsShare(marvel.NumSVTX, marvel.DimTX),
	}
	lane := amdahl.Group{}
	for _, id := range []marvel.KernelID{marvel.KCH, marvel.KCC, marvel.KEH, marvel.KTX} {
		frac := cov[id] + cov[marvel.KCD]*detShare[id]
		ported := cov[id]/speed[id] + cov[marvel.KCD]*detShare[id]/speed[marvel.KCD]
		if frac <= 0 || ported <= 0 {
			return g
		}
		lane = append(lane, amdahl.Kernel{Name: id.String() + "+det", Fraction: frac, SpeedUp: frac / ported})
		if t := sim.FromSeconds(ported * ref.PerImage.Seconds()); t > g.LaneMax {
			g.LaneMax = t
		}
	}
	est, err := amdahl.SpeedUpGrouped([]amdahl.Group{lane})
	if err != nil || est <= 0 {
		return g
	}
	g.EstSpeedUp = est
	g.Conclusive = true
	return g
}
