// Package experiments regenerates every quantitative artifact of the
// paper's evaluation (§4.2 worked examples, §5.2 profile, §5.3 naive
// ports, Table 1, Figure 6, Figure 7) from the simulated machine and the
// MARVEL port, and renders paper-vs-measured comparisons.
//
// The experiment grids are embarrassingly parallel: every simulation owns
// a private sim.Engine, machine and workload, and all cross-run inputs
// are immutable. Each grid fans out over parallel.RunIndexed with
// Config.Parallel workers, so parallel execution returns byte-identical
// artifacts to the sequential path (TestParallelRunnerDeterminism).
package experiments

import (
	"fmt"
	"io"
	"strings"

	"cellport/internal/cell"
	"cellport/internal/cost"
	"cellport/internal/exec"
	"cellport/internal/marvel"
	"cellport/internal/parallel"
	"cellport/internal/sim"
)

// Config sizes the experiment runs.
type Config struct {
	// Quick shrinks frames and image sets for fast test runs; the full
	// configuration uses the paper's 352×240 frames and 1/10/50 sets.
	Quick bool
	Seed  uint64
	// Parallel bounds the worker pool used for independent simulation
	// runs: 0 (the default) means GOMAXPROCS, 1 forces the sequential
	// path. Virtual-time results are identical at any setting; only host
	// wall time changes.
	Parallel int
	// NoCache gives every run a fresh cold cache
	// (marvel.NewColdArtifactCache) instead of the process-wide one: each
	// run recomputes its frames and model set and every kernel inline —
	// the paperbench -nocache oracle.
	NoCache bool
	// Artifacts, when non-nil, overrides the artifact cache used by all
	// runs of this configuration (takes precedence over NoCache).
	Artifacts *marvel.ArtifactCache
	// FaultSpec is an explicit fault plan for the faults experiment
	// (fault.Parse grammar). Empty selects a seeded plan.
	FaultSpec string
	// FaultSeed seeds the derived fault plan when FaultSpec is empty. At
	// 0 the faults and chaos experiments use seed 1, while serve and
	// fleet arm no plan and run fault-free.
	FaultSeed uint64
	// Watchdog overrides the supervision watchdog timeout in every
	// fault-armed run (paperbench -watchdog; 0 keeps the default).
	Watchdog sim.Duration
	// Collect, when non-nil, arms per-run observability: every ported run
	// gets a private trace recorder and metrics registry, and its
	// artifacts are gathered under a run label (see Collector). Nil keeps
	// every run on its exact uninstrumented path.
	Collect *Collector
	// Serve sizes the serving-layer experiment (-exp serve).
	Serve ServeConfig
	// Race sizes the estimator-race experiment (-exp race): the same
	// calibration points the serving layer measures, each also executed
	// for real, one goroutine per lane (internal/exec).
	Race RaceConfig
	// Fleet sizes the fleet-scale serving experiment (-exp fleet); the
	// per-pool blade count and stream come from Serve.
	Fleet FleetConfig
	// FullSim re-runs the full machine simulation once per distinct
	// dispatched serve key and fails on any divergence from the
	// calibration table (serve.Config.FullFidelity).
	FullSim bool
}

// artifacts returns the cache for one run of this configuration: the
// explicit Artifacts, else under NoCache a fresh cold cache per call,
// else the process-wide shared cache.
func (c Config) artifacts() *marvel.ArtifactCache {
	switch {
	case c.Artifacts != nil:
		return c.Artifacts
	case c.NoCache:
		return marvel.NewColdArtifactCache()
	}
	return marvel.SharedArtifacts()
}

// ported builds a PortedConfig carrying this configuration's machine and
// cache policy, so every experiment's RunPorted call shares artifacts the
// same way.
func (c Config) ported(w marvel.Workload, s marvel.Scenario, v marvel.Variant) marvel.PortedConfig {
	return marvel.PortedConfig{
		Workload:      w,
		Scenario:      s,
		Variant:       v,
		MachineConfig: MachineConfig(),
		Artifacts:     c.artifacts(),
	}
}

// DefaultConfig is the paper-faithful configuration and the one home of
// the run defaults: paperbench binds each flag to its field here, so a
// run without flags is this Config and -help prints these values.
func DefaultConfig() Config {
	return Config{
		Seed:  20070710,
		Serve: ServeConfig{Rate: 2, Burst: 2, Seed: 7},
		Fleet: FleetConfig{Pools: 4, Autoscale: true, Flash: true},
		Race:  RaceConfig{Reps: exec.DefaultReps},
	}
}

// Workload sizes an n-image run under this configuration. It is the
// single source of frame geometry for experiments and benchmarks.
func (c Config) Workload(n int) marvel.Workload {
	if c.Quick {
		return marvel.Workload{Images: n, W: 352, H: 96, Seed: c.Seed}
	}
	return marvel.Workload{Images: n, W: 352, H: 240, Seed: c.Seed}
}

func (c Config) setSizes() []int {
	if c.Quick {
		return []int{1, 2, 4}
	}
	return []int{1, 10, 50}
}

// MachineConfig returns a machine sized for the experiments (and for the
// benchmark harness, which shares it).
func MachineConfig() *cell.Config {
	cfg := cell.DefaultConfig()
	cfg.MemorySize = 64 << 20
	return &cfg
}

// Table1Row is one row of the regenerated Table 1.
type Table1Row struct {
	Kernel        marvel.KernelID
	PPETime       sim.Duration
	SPETime       sim.Duration
	SpeedUp       float64
	Coverage      float64
	PaperSpeedUp  float64
	PaperCoverage float64
}

// kernelRoundTrips measures per-kernel PPE and SPE times for one variant:
// the reference run gives PPE kernel times; a SingleSPE ported run gives
// non-overlapping SPE round-trip times. The two simulations are
// independent, so they run through the worker pool.
func kernelRoundTrips(cfg Config, v marvel.Variant) (*marvel.ReferenceResult, *marvel.PortedResult, error) {
	w := cfg.Workload(1)
	var ref *marvel.ReferenceResult
	var ported *marvel.PortedResult
	_, err := parallel.RunIndexed(cfg.Parallel, 2, func(i int) (struct{}, error) {
		if i == 0 {
			r, err := cfg.artifacts().Reference(cost.NewPPE(), w)
			ref = r
			return struct{}{}, err
		}
		p, err := cfg.runPorted(fmt.Sprintf("kernels/%s/single-spe", v), cfg.ported(w, marvel.SingleSPE, v))
		ported = p
		return struct{}{}, err
	})
	if err != nil {
		return nil, nil, err
	}
	return ref, ported, nil
}

// Table1 regenerates Table 1: optimized SPE-vs-PPE kernel speed-ups with
// per-kernel coverage.
func Table1(cfg Config) ([]Table1Row, error) {
	ref, ported, err := kernelRoundTrips(cfg, marvel.Optimized)
	if err != nil {
		return nil, err
	}
	cov := ref.KernelCoverage()
	var rows []Table1Row
	for _, id := range marvel.KernelIDs {
		p := id.Paper()
		rows = append(rows, Table1Row{
			Kernel:        id,
			PPETime:       ref.KernelTime[id],
			SPETime:       ported.KernelTime[id],
			SpeedUp:       ref.KernelTime[id].Seconds() / ported.KernelTime[id].Seconds(),
			Coverage:      cov[id],
			PaperSpeedUp:  p.SpeedUp,
			PaperCoverage: p.Coverage,
		})
	}
	return rows, nil
}

// RenderTable1 prints the comparison table.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1 — SPE vs PPE kernel speed-ups (optimized kernels)\n")
	fmt.Fprintf(w, "%-12s %12s %12s %9s %9s %10s %10s\n",
		"Kernel", "PPE time", "SPE time", "Speed-up", "(paper)", "Coverage", "(paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12s %12s %9.2f %9.2f %9.1f%% %9.0f%%\n",
			r.Kernel, r.PPETime, r.SPETime, r.SpeedUp, r.PaperSpeedUp,
			r.Coverage*100, r.PaperCoverage*100)
	}
}

// NaiveRow is one §5.3 pre-optimization measurement.
type NaiveRow struct {
	Kernel       marvel.KernelID
	SpeedUp      float64
	PaperSpeedUp float64 // 0 when the paper did not measure it
}

// NaiveSpeedups regenerates the §5.3 before-optimization numbers.
func NaiveSpeedups(cfg Config) ([]NaiveRow, error) {
	ref, ported, err := kernelRoundTrips(cfg, marvel.Naive)
	if err != nil {
		return nil, err
	}
	var rows []NaiveRow
	for _, id := range marvel.KernelIDs {
		rows = append(rows, NaiveRow{
			Kernel:       id,
			SpeedUp:      ref.KernelTime[id].Seconds() / ported.KernelTime[id].Seconds(),
			PaperSpeedUp: id.Paper().Naive,
		})
	}
	return rows, nil
}

// RenderNaive prints the naive-port comparison.
func RenderNaive(w io.Writer, rows []NaiveRow) {
	fmt.Fprintf(w, "§5.3 — kernel speed-ups before SPE-specific optimization\n")
	fmt.Fprintf(w, "%-12s %9s %9s\n", "Kernel", "Speed-up", "(paper)")
	for _, r := range rows {
		paper := "n/a"
		if r.PaperSpeedUp > 0 {
			paper = fmt.Sprintf("%9.2f", r.PaperSpeedUp)
		}
		fmt.Fprintf(w, "%-12s %9.2f %9s\n", r.Kernel, r.SpeedUp, paper)
	}
}

// Fig6Row holds one kernel's execution time on the four targets.
type Fig6Row struct {
	Kernel                     marvel.KernelID
	Laptop, Desktop, PPE, SPE  sim.Duration
	LaptopS, DesktopS, SPEvPPE float64 // speed ratios vs PPE for the log plot
}

// Fig6 regenerates Figure 6: per-kernel execution times on the Laptop,
// the Desktop, the PPE and the (optimized) SPE, log scale.
func Fig6(cfg Config) ([]Fig6Row, error) {
	w := cfg.Workload(1)
	hosts := []func() *cost.Model{cost.NewLaptop, cost.NewDesktop}
	refs, err := parallel.RunIndexed(cfg.Parallel, len(hosts), func(i int) (*marvel.ReferenceResult, error) {
		return cfg.artifacts().Reference(hosts[i](), w)
	})
	if err != nil {
		return nil, err
	}
	lap, desk := refs[0], refs[1]
	ref, ported, err := kernelRoundTrips(cfg, marvel.Optimized)
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for _, id := range marvel.KernelIDs {
		r := Fig6Row{
			Kernel:  id,
			Laptop:  lap.KernelTime[id],
			Desktop: desk.KernelTime[id],
			PPE:     ref.KernelTime[id],
			SPE:     ported.KernelTime[id],
		}
		r.LaptopS = r.PPE.Seconds() / r.Laptop.Seconds()
		r.DesktopS = r.PPE.Seconds() / r.Desktop.Seconds()
		r.SPEvPPE = r.PPE.Seconds() / r.SPE.Seconds()
		rows = append(rows, r)
	}
	return rows, nil
}

// RenderFig6 prints the series with a log-scale ASCII bar per target.
func RenderFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintf(w, "Figure 6 — kernel execution times (log scale)\n")
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n", "Kernel", "Laptop", "Desktop", "PPE", "SPE")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n", r.Kernel, r.Laptop, r.Desktop, r.PPE, r.SPE)
	}
	fmt.Fprintln(w, "\nlog-scale bars (each █ is ×2 above 1µs):")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s\n", r.Kernel)
		for _, t := range []struct {
			name string
			d    sim.Duration
		}{{"Laptop", r.Laptop}, {"Desktop", r.Desktop}, {"PPE", r.PPE}, {"SPE", r.SPE}} {
			fmt.Fprintf(w, "  %-8s |%s %s\n", t.name, logBar(t.d), t.d)
		}
	}
}

func logBar(d sim.Duration) string {
	us := d.Microseconds()
	n := 0
	for v := us; v > 1 && n < 60; v /= 2 {
		n++
	}
	return strings.Repeat("█", n)
}
