package experiments

import (
	"fmt"
	"io"
	"math"

	"cellport/internal/exec"
	"cellport/internal/marvel"
	"cellport/internal/serve"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// The estimator-race experiment answers the question the calibrated
// simulator begs: how wrong is it? Every (scheme × geometry × batch)
// point the serving layer calibrates is run twice — once through the
// virtual-time simulation (the exact run that fills the calibration
// table) and once for real with its lanes as goroutines, with the same
// slice plans, buffering depth and lane schedule. The report carries
// per-point relative error between the simulated and measured batch
// speedups, and — the paper's Fig. 7 criterion — whether the simulator
// ranks job vs data distribution the same way the real execution does.
//
// Clock-domain discipline: every field derived from host wall time is
// JSON-tagged with a measured_ prefix. Stripping those keys leaves a
// report that is a pure function of the configuration, byte-identical
// across machines and runs; benchdiff skips measured_ keys so the
// committed baseline stays comparable.

// RaceConfig sizes the real-execution half of the race.
type RaceConfig struct {
	// Workers is how many lanes may compute at once (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// Reps is how many times each point's batch runs for real; the
	// fastest wall time wins (<= 0 selects exec.DefaultReps).
	Reps int
}

// RacePoint is one (scheme, geometry, batch) point run both ways.
type RacePoint struct {
	Scheme string `json:"scheme"`
	Tall   bool   `json:"tall"`
	K      int    `json:"k"`

	// SimService is the simulated steady-state service time (Total −
	// OneTime) from the re-run, and TableMatch asserts it equals the
	// calibration table's entry exactly — the simulated half of the race
	// is byte-for-byte the run the serving layer placed bets on.
	SimService sim.Duration `json:"sim_service"`
	TableMatch bool         `json:"table_match"`
	// EstService is the Eqs. 1-3 estimate for the point (0 when the
	// estimator is inconclusive at this geometry).
	EstService sim.Duration `json:"est_service"`
	// SimSpeedup is k × sim(k=1)/sim(k): the simulated batch-coalescing
	// speedup relative to k single dispatches.
	SimSpeedup float64 `json:"sim_speedup"`
	// Mismatches counts executed images whose features or decisions
	// differ from the host reference (bit-exactness: must be 0).
	Mismatches int `json:"mismatches"`

	// The wall-clock half. WallNS is best-of-reps; Speedup is the
	// measured batch-coalescing speedup k × wall(k=1)/wall(k); RelErr is
	// |SimSpeedup − Speedup| / Speedup.
	WallNS  int64   `json:"measured_wall_ns"`
	Speedup float64 `json:"measured_speedup"`
	RelErr  float64 `json:"measured_rel_err"`
}

// RaceResult is the full estimator-error report.
type RaceResult struct {
	MaxBatch int         `json:"max_batch"`
	Points   []RacePoint `json:"points"`
	// AllTableMatch / AllBitExact summarize the deterministic
	// guarantees: every sim half equals its calibration entry, every
	// exec half equals the host reference bit for bit.
	AllTableMatch bool `json:"all_table_match"`
	AllBitExact   bool `json:"all_bit_exact"`
	// RankingPoints counts the decisive (geometry, k) comparisons where
	// the simulator separates job from data distribution by more than
	// 5%; only those score ranking agreement (a coin-flip gap agreeing
	// or not says nothing about the estimator).
	RankingPoints int `json:"ranking_points"`

	Workers int `json:"measured_workers"`
	Reps    int `json:"measured_reps"`
	// RankingAgreed counts decisive points where real execution ranks
	// the schemes the same way the simulator does; Agreement is the
	// fraction (1 when there are no decisive points). EstAgreed scores
	// the Eqs. 1-3 estimate against real execution the same way, over
	// decisive points where the estimate is conclusive.
	RankingAgreed int     `json:"measured_ranking_agreed"`
	Agreement     float64 `json:"measured_ranking_agreement"`
	EstPoints     int     `json:"measured_est_points"`
	EstAgreed     int     `json:"measured_est_agreed"`
	// MeanRelErr / MaxRelErr aggregate the per-point speedup errors
	// over the k > 1 points.
	MeanRelErr float64 `json:"measured_mean_rel_err"`
	MaxRelErr  float64 `json:"measured_max_rel_err"`
}

// raceGeomName labels a geometry in collector artifact labels.
func raceGeomName(tall bool) string {
	if tall {
		return "tall"
	}
	return "std"
}

// rankingMargin is the relative gap below which a sim scheme comparison
// is considered a tie and excluded from ranking agreement.
const rankingMargin = 0.05

// RaceExp runs the estimator race: calibrate the serving layer's service
// table, then re-run every calibration point, execute it for real on the
// backend, and score the simulator against the wall clock.
func RaceExp(cfg Config) (*RaceResult, error) {
	base, err := cfg.serveBase()
	if err != nil {
		return nil, err
	}
	cal, err := serve.Calibrate(base)
	if err != nil {
		return nil, err
	}
	backend := exec.NewBackend(exec.Options{
		Workers:    cfg.Race.Workers,
		Reps:       cfg.Race.Reps,
		Artifacts:  base.Artifacts,
		Instrument: cfg.Collect != nil,
	})
	defer backend.Close()

	res := &RaceResult{
		MaxBatch:      cal.MaxBatch(),
		AllTableMatch: true,
		AllBitExact:   true,
		Workers:       backend.Workers(),
	}
	// wall / simSvc indexed by [tall][scheme][k] for speedup and ranking
	// lookups; k is iterated ascending so k=1 is always present first.
	type pointKey struct {
		tall   bool
		scheme serve.Scheme
		k      int
	}
	wall := map[pointKey]int64{}
	simSvc := map[pointKey]sim.Duration{}

	for _, tall := range []bool{false, true} {
		for _, s := range []serve.Scheme{serve.SchemeJob, serve.SchemeData} {
			for k := 1; k <= cal.MaxBatch(); k++ {
				pc := base.RacePointConfig(s, tall, k)
				label := fmt.Sprintf("race/%s/%s/k%d", s, raceGeomName(tall), k)
				rp, err := cfg.runPorted(trace.DomainSim+label, pc)
				if err != nil {
					return nil, fmt.Errorf("race point %s: %w", label, err)
				}
				er, err := backend.Execute(marvel.ExecPoint{Workload: pc.Workload, Scenario: pc.Scenario, Variant: pc.Variant})
				if err != nil {
					return nil, fmt.Errorf("race point %s: exec backend: %w", label, err)
				}
				res.Reps = er.Reps
				if cfg.Collect != nil {
					cfg.Collect.AddArtifacts(trace.DomainExec+label, er.Trace, er.Metrics)
				}

				ref, err := base.Artifacts.Reference(pc.MachineConfig.PPEModel, pc.Workload)
				if err != nil {
					return nil, fmt.Errorf("race point %s: reference: %w", label, err)
				}
				mism := 0
				if len(er.Images) != len(ref.Images) {
					mism = len(ref.Images)
				} else {
					for i := range er.Images {
						mism += marvel.CompareImageResults(&ref.Images[i], &er.Images[i])
					}
				}

				key := pointKey{tall, s, k}
				p := RacePoint{
					Scheme:     s.String(),
					Tall:       tall,
					K:          k,
					SimService: rp.Total - rp.OneTime,
					EstService: cal.EstimatedService(s, tall, k),
					Mismatches: mism,
					WallNS:     er.WallNS,
				}
				p.TableMatch = p.SimService == cal.MeasuredService(s, tall, k)
				wall[key] = p.WallNS
				simSvc[key] = p.SimService

				if base1 := simSvc[pointKey{tall, s, 1}]; base1 > 0 && p.SimService > 0 {
					p.SimSpeedup = float64(k) * float64(base1) / float64(p.SimService)
				}
				if w1 := wall[pointKey{tall, s, 1}]; w1 > 0 && p.WallNS > 0 {
					p.Speedup = float64(k) * float64(w1) / float64(p.WallNS)
				}
				if p.Speedup > 0 {
					p.RelErr = math.Abs(p.SimSpeedup-p.Speedup) / p.Speedup
				}

				res.AllTableMatch = res.AllTableMatch && p.TableMatch
				res.AllBitExact = res.AllBitExact && mism == 0
				res.Points = append(res.Points, p)
			}
		}
	}

	// Aggregate speedup error over the k > 1 points (k = 1 is the
	// definitional baseline on both clocks).
	nErr := 0
	for _, p := range res.Points {
		if p.K == 1 || p.Speedup <= 0 {
			continue
		}
		nErr++
		res.MeanRelErr += p.RelErr
		if p.RelErr > res.MaxRelErr {
			res.MaxRelErr = p.RelErr
		}
	}
	if nErr > 0 {
		res.MeanRelErr /= float64(nErr)
	}

	// Ranking agreement (Fig. 7 criterion): at each (geometry, k), does
	// real execution prefer the same scheme the simulator does? Only
	// decisive sim gaps count; the estimator is scored the same way
	// where it is conclusive.
	for _, tall := range []bool{false, true} {
		for k := 1; k <= cal.MaxBatch(); k++ {
			job := simSvc[pointKey{tall, serve.SchemeJob, k}]
			data := simSvc[pointKey{tall, serve.SchemeData, k}]
			wj := wall[pointKey{tall, serve.SchemeJob, k}]
			wd := wall[pointKey{tall, serve.SchemeData, k}]
			if job <= 0 || data <= 0 || wj <= 0 || wd <= 0 {
				continue
			}
			gap := float64(job)/float64(data) - 1
			if math.Abs(gap) <= rankingMargin {
				continue
			}
			res.RankingPoints++
			simPrefersJob := gap < 0
			measPrefersJob := wj < wd
			if simPrefersJob == measPrefersJob {
				res.RankingAgreed++
			}
			ej := cal.EstimatedService(serve.SchemeJob, tall, k)
			ed := cal.EstimatedService(serve.SchemeData, tall, k)
			if ej > 0 && ed > 0 {
				res.EstPoints++
				if (ej < ed) == measPrefersJob {
					res.EstAgreed++
				}
			}
		}
	}
	res.Agreement = 1
	if res.RankingPoints > 0 {
		res.Agreement = float64(res.RankingAgreed) / float64(res.RankingPoints)
	}
	return res, nil
}

// RenderRace prints the estimator-error report.
func RenderRace(w io.Writer, r *RaceResult) {
	fmt.Fprintf(w, "Estimator race — %d points, %d workers, best of %d reps\n",
		len(r.Points), r.Workers, r.Reps)
	fmt.Fprintf(w, "%-10s %-5s %2s %12s %12s %10s %8s %8s %7s\n",
		"scheme", "geom", "k", "sim-svc", "est-svc", "wall-ms", "sim-SU", "real-SU", "err%")
	for _, p := range r.Points {
		est := "-"
		if p.EstService > 0 {
			est = p.EstService.String()
		}
		fmt.Fprintf(w, "%-10s %-5s %2d %12s %12s %10.3f %8.3f %8.3f %7.2f\n",
			p.Scheme, raceGeomName(p.Tall), p.K, p.SimService, est,
			float64(p.WallNS)/1e6, p.SimSpeedup, p.Speedup, 100*p.RelErr)
	}
	fmt.Fprintf(w, "bit-exact: %v | table-match: %v\n", r.AllBitExact, r.AllTableMatch)
	fmt.Fprintf(w, "speedup error: mean %.2f%%, max %.2f%%\n", 100*r.MeanRelErr, 100*r.MaxRelErr)
	fmt.Fprintf(w, "scheme ranking: sim agrees with real execution on %d/%d decisive points (%.0f%%)\n",
		r.RankingAgreed, r.RankingPoints, 100*r.Agreement)
	if r.EstPoints > 0 {
		fmt.Fprintf(w, "Eqs. 1-3 estimate agrees with real execution on %d/%d conclusive points\n",
			r.EstAgreed, r.EstPoints)
	}
}
