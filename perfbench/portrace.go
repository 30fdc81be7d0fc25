package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cellport/internal/cell"
	"cellport/internal/exec"
	"cellport/internal/marvel"
	"cellport/internal/metrics"
	"cellport/internal/serve"
	"cellport/internal/sim"
)

// gridPoint is one (scheme × geometry × batch) point that
// serve.Calibrate measures.
type gridPoint struct {
	Scheme serve.Scheme
	Tall   bool
	K      int
}

func (g gridPoint) String() string {
	geom := "std"
	if g.Tall {
		geom = "tall"
	}
	return fmt.Sprintf("%s/%s/k%d", g.Scheme, geom, g.K)
}

// calGrid lists the points Calibrate measures for cfg: every scheme and
// batch size at the standard geometry, and at the double-height one
// when the stream carries tall frames.
func calGrid(cfg serve.Config) []gridPoint {
	geoms := []bool{false}
	if cfg.TallFrac > 0 {
		geoms = append(geoms, true)
	}
	var grid []gridPoint
	for _, tall := range geoms {
		for _, s := range []serve.Scheme{serve.SchemeJob, serve.SchemeData} {
			for k := 1; k <= cfg.MaxBatch; k++ {
				grid = append(grid, gridPoint{s, tall, k})
			}
		}
	}
	return grid
}

// estErrorPct is the mean |Eqs. 1–3 estimate − simulated service| /
// simulated service over the k > 1 points of the calibration table, in
// percent (k = 1 is where the estimator is fitted).
func estErrorPct(cal *serve.Calibration, grid []gridPoint) float64 {
	sum, n := 0.0, 0
	for _, g := range grid {
		meas := cal.MeasuredService(g.Scheme, g.Tall, g.K)
		if g.K == 1 || meas <= 0 {
			continue
		}
		est := cal.EstimatedService(g.Scheme, g.Tall, g.K)
		sum += math.Abs(float64(est-meas)) / float64(meas)
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// racePoint is the deterministic outcome of one raced point; a
// repetition's list of them is the report whose digest must repeat.
type racePoint struct {
	Point      string       `json:"point"`
	Service    sim.Duration `json:"sim_service_fs"`
	Events     uint64       `json:"events"`
	Validation int          `json:"validation_errors"`
	Mismatches int          `json:"exec_mismatches"`
	Images     int          `json:"images"`
}

// raceCounts are the machine-model counters a traced race reads from
// the per-point metrics registries (cell.Config.Metrics).
type raceCounts struct {
	events, reallocFast, reallocFull, dmaCommands, dmaBytes int64
	cacheHits, cacheMisses                                  uint64
}

// raceRep simulates every grid point with Validate on and then executes
// it for real, on a fresh artifact cache. It checks each point against
// the host reference and the calibration table and returns the
// repetition's rates. With registries set, each simulation also fills a
// metrics registry whose counters are summed into counts.
func raceRep(b *bench, base serve.Config, cal *serve.Calibration, registries bool, counts *raceCounts) (repOut, error) {
	arts := marvel.NewArtifactCache()
	be := exec.NewBackend(exec.Options{Workers: b.procs, Reps: 1, Artifacts: arts})
	defer be.Close()

	grid := calGrid(base)
	var simD, execD time.Duration
	images := 0
	var report []racePoint
	wall, err := b.m.time(kindRep, "rep", func() error {
		for _, g := range grid {
			pc := base.RacePointConfig(g.Scheme, g.Tall, g.K)
			pc.Artifacts = arts
			pc.Validate = true
			var reg *metrics.Registry
			if registries {
				mc := *pc.MachineConfig
				reg = metrics.NewRegistry()
				mc.Metrics = reg
				pc.MachineConfig = &mc
			}
			var res *marvel.PortedResult
			d, err := b.phase("simulate", func() error {
				return b.layer("marvel.RunPorted", func() (err error) {
					res, err = marvel.RunPorted(pc)
					return err
				})
			})
			if err != nil {
				b.chk.fail("race "+g.String(), err)
				continue
			}
			simD += d
			var run *marvel.ExecRun
			d, err = b.phase("execute", func() error {
				return b.layer("exec.Execute", func() (err error) {
					run, err = be.Execute(marvel.ExecPoint{Workload: pc.Workload, Scenario: pc.Scenario, Variant: pc.Variant})
					return err
				})
			})
			if err != nil {
				b.chk.fail("race "+g.String(), err)
				continue
			}
			execD += d
			images += len(run.Images)

			p := racePoint{Point: g.String(), Service: res.Total - res.OneTime, Events: res.EventCount,
				Validation: res.ValidationErrors, Images: len(run.Images)}
			var ref *marvel.ReferenceResult
			_, err = b.phase("check", func() (err error) {
				if ref, err = arts.Reference(pc.MachineConfig.PPEModel, pc.Workload); err != nil {
					return err
				}
				if len(ref.Images) == len(run.Images) {
					for i := range run.Images {
						p.Mismatches += marvel.CompareImageResults(&ref.Images[i], &run.Images[i])
					}
				}
				return nil
			})
			if err != nil {
				b.chk.fail("race "+g.String(), err)
				continue
			}
			want := cal.MeasuredService(g.Scheme, g.Tall, g.K)
			b.chk.op("race "+g.String(),
				pass("validate", p.Validation == 0, "%d validation errors", p.Validation),
				pass("exec-bit-exact", len(ref.Images) == len(run.Images) && p.Mismatches == 0,
					"%d mismatches over %d/%d images", p.Mismatches, len(run.Images), len(ref.Images)),
				pass("table-match", p.Service == want, "simulated %v, table %v", p.Service, want),
			)
			report = append(report, p)
			if counts != nil {
				counts.events += int64(res.EventCount)
				if reg != nil {
					addMachineCounts(counts, reg.Snapshot())
				}
			}
		}
		return nil
	})
	if counts != nil {
		counts.cacheHits, counts.cacheMisses = arts.Stats()
	}
	if err != nil {
		return repOut{}, err
	}
	_, same := b.chk.digest("race", report)
	b.chk.op("race report", same)
	return repOut{
		ops:  float64(len(grid)),
		wall: wall,
		values: map[string]float64{
			"sim_points_per_s":  float64(len(grid)) / simD.Seconds(),
			"exec_images_per_s": float64(images) / execD.Seconds(),
		},
	}, nil
}

// addMachineCounts sums the EIB reallocation split and the MFC command
// and byte counts of one machine's registry snapshot.
func addMachineCounts(c *raceCounts, s *metrics.Snapshot) {
	for _, sm := range s.Samples {
		switch {
		case sm.Component == "eib" && sm.Name == "realloc_fast_path":
			c.reallocFast += sm.Value
		case sm.Component == "eib" && sm.Name == "realloc_full_waterfill":
			c.reallocFull += sm.Value
		case strings.HasPrefix(sm.Component, "mfc") && sm.Name == "commands":
			c.dmaCommands += sm.Value
		case strings.HasPrefix(sm.Component, "mfc") && (sm.Name == "bytes_in" || sm.Name == "bytes_out"):
			c.dmaBytes += sm.Value
		}
	}
}

// bladeMachine is one blade's machine: the default Cell with a blade's
// 64 MB share of memory, as the serving layer configures it.
func bladeMachine() *cell.Config {
	mc := cell.DefaultConfig()
	mc.MemorySize = 64 << 20
	return &mc
}

// paperGrid is the calibration both port-race and fleet-ladder build:
// the paper's 352×240 frames, a quarter of them double height, batches
// up to 4. Its serving configurations are the routed fleet at rung 1.0.
type paperGrid struct {
	base serve.Config
	cal  *serve.Calibration
}

func newPaperGrid(b *bench) paperGrid {
	return paperGrid{base: serve.Config{
		Blades:        2,
		MaxQueue:      8,
		MaxBatch:      4,
		TallFrac:      0.25,
		Seed:          b.seed, // the fleet's fault plan
		Frame:         marvel.Workload{W: 352, H: 240, Seed: frameSeed(b.seed)},
		Variant:       marvel.Optimized,
		MachineConfig: bladeMachine(),
		Parallel:      b.procs,
		Shards:        b.procs,
	}}
}

func (w *paperGrid) setup(b *bench) error {
	cal, err := calibrate(b, w.base)
	w.cal = cal
	return err
}

func (w *paperGrid) calibration() (serve.Config, *serve.Calibration) { return w.base, w.cal }

func (w *paperGrid) loopConfig() serve.Config {
	return fleetShape(w.base, w.cal, 1.0, fleetRequests)
}

func (w *paperGrid) verifyConfig() serve.Config {
	c := fleetShape(w.base, w.cal, 1.0, verifyRequests)
	c.FullFidelity = true
	return c
}

// portRace races the paper grid: simulated, then executed for real.
type portRace struct{ paperGrid }

func newPortRace(b *bench) *portRace { return &portRace{newPaperGrid(b)} }

func (w *portRace) rep(b *bench, traced bool) (repOut, error) {
	return raceRep(b, w.base, w.cal, traced, nil)
}
