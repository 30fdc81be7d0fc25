// Command paperbench regenerates every quantitative artifact of the
// paper's evaluation and prints paper-vs-measured comparisons:
//
//	paperbench -exp all          # every experiment, in table order (default)
//	paperbench -exp fig7         # one experiment: -help lists the names,
//	                             # experiments.All defines each one, and
//	                             # EXPERIMENTS.md quotes the paper's
//	                             # tables and figures as they print
//	paperbench -quick            # reduced frames/sets for a fast pass
//	paperbench -parallel 4       # worker pool for independent runs
//	paperbench -nocache          # recompute artifacts per run (cold path)
//	paperbench -json out.json    # machine-readable sidecar ("-" = stdout)
//	paperbench -trace out.json   # Chrome trace (load at ui.perfetto.dev)
//	paperbench -metrics m.json   # flat per-run metrics dump
//	paperbench -faults <spec>    # explicit fault plan (-exp faults|serve|chaos|fleet)
//	                             # (e.g. "crash:spe=0,at=5ms;blade-crash:blade=1,at=2s")
//	paperbench -faultseed 7      # seed-derived fault plan
//	                             # (-exp faults|serve|chaos|fleet)
//	paperbench -watchdog 250ms   # supervision watchdog override
//	                             # (-exp faults|serve|chaos|fleet)
//	paperbench -rate 2.5         # serve: offered load, × estimated capacity
//	paperbench -blades 4         # serve: blade-pool size
//	paperbench -deadline 250     # serve: per-request deadline, virtual ms
//	paperbench -servesed 9       # serve: arrival-stream seed
//	paperbench -burst 3          # serve: mean arrival burst size
//	paperbench -fullsim          # serve: re-simulate the machine once per
//	                             # dispatched key; fail on calibration divergence
//	paperbench -workers 2        # race: lanes computing at once (wall times
//	                             # move, sim/est results never do)
//	paperbench -reps 5           # race: real-execution repetitions per point
//	                             # (fastest wall time wins)
//	paperbench -pools 6          # fleet: number of routed blade pools
//	paperbench -autoscale=false  # fleet: disarm the virtual-time autoscaler
//	paperbench -flash=false      # fleet: drop the flash-crowd windows (keep
//	                             # the diurnal sinusoid)
//	paperbench -cpuprofile F     # write a pprof CPU profile of the run
//	paperbench -memprofile F     # write a pprof allocation profile of the run
//	paperbench -bench-refresh    # regenerate the committed bench/ baselines
//	                             # (-nocache and -parallel carry into each run)
//	paperbench -bench-dir D      # target directory for -bench-refresh
//
// Each flag that sizes a run binds one field of
// experiments.DefaultConfig(), which holds its default: a run without
// flags is exactly that Config, and -help prints every default. A zero
// -rate, -burst or -servesed is rejected rather than read as a default;
// a zero -blades keeps selecting the experiment's own blade count.
//
// Independent simulation runs fan out over -parallel workers;
// virtual-time results are identical at any setting. The
// -json file records per-experiment host wall time alongside the
// virtual-time data, so successive checkouts can track a perf trajectory.
//
// Flags are validated before anything runs: a negative -parallel, an
// unknown -exp, or a flag aimed at an experiment that is not selected
// (e.g. -faults with -exp table1) exits with status 2 and a one-line
// usage hint, instead of silently ignoring the flag.
//
// All output files are written atomically (temp file + rename), so an
// error mid-run can never leave a truncated artifact.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"cellport/internal/atomicfile"
	"cellport/internal/experiments"
	"cellport/internal/fault"
	"cellport/internal/serve"
)

// jsonEntry is one experiment's machine-readable record. WallMS
// describes the host run, not the simulation, so it lives beside Data —
// byte-compare tooling that strips to Data (the CI smoke jobs,
// benchdiff's equality check) ignores it by construction.
type jsonEntry struct {
	WallMS float64 `json:"wall_ms"`
	Data   any     `json:"data"`
}

// expChoices lists every -exp value: "all", then the rows of
// experiments.All in execution order.
func expChoices() string {
	names := []string{"all"}
	for _, e := range experiments.All {
		names = append(names, e.Name)
	}
	return strings.Join(names, "|")
}

var usageHint = "usage: paperbench [-exp " + expChoices() + "] [-quick] [-parallel N] [-json F] [-trace F] [-metrics F] (run with -help for all flags)"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line: cfg is the experiments.Config the
// run uses, every flag that sizes a run bound straight into it, and the
// other fields are the command's own switches.
type options struct {
	cfg         experiments.Config
	exp         string
	jsonPath    string
	watchdog    string // parsed into cfg.Watchdog by validate
	tracePath   string
	metricsPath string
	cpuProfile  string
	memProfile  string
	benchFresh  bool
	benchDir    string

	set map[string]bool // flags explicitly given on the command line
}

// parseFlags parses args over experiments.DefaultConfig(), so each
// flag's default is the field it binds and -help prints it; flag errors
// (including -help) return nil and the exit status to use.
func parseFlags(args []string, errw io.Writer) (*options, int) {
	o := &options{cfg: experiments.DefaultConfig()}
	c := &o.cfg
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.StringVar(&o.exp, "exp", "all", "experiment: "+expChoices())
	fs.BoolVar(&c.Quick, "quick", c.Quick, "reduced frame size and image sets")
	fs.StringVar(&o.jsonPath, "json", "", "write machine-readable results to this path (\"-\" for stdout)")
	fs.Uint64Var(&c.Seed, "seed", c.Seed, "workload seed")
	fs.IntVar(&c.Parallel, "parallel", c.Parallel, "worker pool size for independent runs (0 = GOMAXPROCS, 1 = sequential)")
	fs.BoolVar(&c.NoCache, "nocache", c.NoCache, "recompute workload artifacts for every run (cold-path calibration)")
	fs.StringVar(&c.FaultSpec, "faults", c.FaultSpec, "explicit fault plan for -exp faults|serve|chaos|fleet (kind:spe=N,...;... — see internal/fault)")
	fs.Uint64Var(&c.FaultSeed, "faultseed", c.FaultSeed, "seed for a derived fault plan when -faults is empty (-exp faults|serve|chaos|fleet; 0 = seed 1 for faults and chaos, no fault plan for serve and fleet)")
	fs.StringVar(&o.watchdog, "watchdog", "", "supervision watchdog timeout override, fault duration grammar e.g. 250ms (-exp faults|serve|chaos|fleet)")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace (Perfetto-loadable) of every instrumented run to this path")
	fs.StringVar(&o.metricsPath, "metrics", "", "write per-run metrics JSON to this path")
	fs.Float64Var(&c.Serve.Rate, "rate", c.Serve.Rate, "serve: offered load as a multiple of estimated pool capacity")
	fs.IntVar(&c.Serve.Blades, "blades", c.Serve.Blades, fmt.Sprintf("serve: number of simulated Cell blades (0 = %d; %d for -exp chaos)",
		experiments.ServeBlades, experiments.ChaosBlades))
	fs.Float64Var(&c.Serve.DeadlineMS, "deadline", c.Serve.DeadlineMS, "serve: per-request deadline in virtual ms (0 = automatic, negative = none)")
	fs.Uint64Var(&c.Serve.Seed, "servesed", c.Serve.Seed, "serve: arrival-stream seed")
	fs.Float64Var(&c.Serve.Burst, "burst", c.Serve.Burst, "serve: mean arrival burst size")
	fs.BoolVar(&c.FullSim, "fullsim", c.FullSim, "serve: re-simulate the full machine once per distinct dispatched key (verified dispatch)")
	fs.IntVar(&c.Fleet.Pools, "pools", c.Fleet.Pools, "fleet: number of routed blade pools (each of -blades blades)")
	fs.BoolVar(&c.Fleet.Autoscale, "autoscale", c.Fleet.Autoscale, "fleet: arm the virtual-time autoscaler (-autoscale=false for a static fleet)")
	fs.BoolVar(&c.Fleet.Flash, "flash", c.Fleet.Flash, "fleet: add seeded flash-crowd windows to the diurnal load model")
	fs.IntVar(&c.Race.Workers, "workers", c.Race.Workers, "race: lanes computing at once in real execution (0 = GOMAXPROCS; never affects simulated results)")
	fs.IntVar(&c.Race.Reps, "reps", c.Race.Reps, "race: real-execution repetitions per point, fastest wall time wins")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof allocation profile of the run to this path")
	fs.BoolVar(&o.benchFresh, "bench-refresh", false, "regenerate the committed benchmark baselines (BENCH_serve.json, BENCH_sweep.json, BENCH_fleet.json, BENCH_race.json); -nocache and -parallel carry into every run")
	fs.StringVar(&o.benchDir, "bench-dir", "bench", "target directory for -bench-refresh")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil, 0
		}
		return nil, 2
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o, 0
}

// validate rejects inconsistent flag combinations before anything runs.
// It returns an error message, or "" when the options are usable.
func (o *options) validate() string {
	if _, ok := experiments.Find(o.exp); !ok && o.exp != "all" {
		return fmt.Sprintf("unknown experiment %q", o.exp)
	}
	if o.cfg.Parallel < 0 {
		return fmt.Sprintf("-parallel must be >= 0, got %d", o.cfg.Parallel)
	}
	expSelects := func(names ...string) bool {
		if o.exp == "all" {
			return true
		}
		for _, n := range names {
			if o.exp == n {
				return true
			}
		}
		return false
	}
	for _, f := range []string{"faults", "faultseed", "watchdog"} {
		if o.set[f] && !expSelects("faults", "serve", "chaos", "fleet") {
			return fmt.Sprintf("-%s only applies to -exp faults, serve, chaos or fleet, not -exp %s", f, o.exp)
		}
	}
	for _, f := range []string{"rate", "blades", "deadline", "servesed", "burst", "fullsim"} {
		if o.set[f] && !expSelects("serve", "chaos", "fleet") {
			return fmt.Sprintf("-%s only applies to -exp serve, chaos or fleet, not -exp %s", f, o.exp)
		}
	}
	for _, f := range []string{"pools", "autoscale", "flash"} {
		if o.set[f] && !expSelects("fleet") {
			return fmt.Sprintf("-%s only applies to -exp fleet, not -exp %s", f, o.exp)
		}
	}
	for _, f := range []string{"workers", "reps"} {
		if o.set[f] && !expSelects("race") {
			return fmt.Sprintf("-%s only applies to -exp race, not -exp %s", f, o.exp)
		}
	}
	if o.cfg.Fleet.Pools < 1 {
		return fmt.Sprintf("-pools must be >= 1, got %d", o.cfg.Fleet.Pools)
	}
	if o.cfg.Race.Workers < 0 {
		return fmt.Sprintf("-workers must be >= 0, got %d", o.cfg.Race.Workers)
	}
	if o.cfg.Race.Reps < 0 {
		return fmt.Sprintf("-reps must be >= 0, got %d", o.cfg.Race.Reps)
	}
	// A zero here would select no default: the defaults are the flags'
	// own, and the serving layer would read a zero burst as 1, not 2.
	for _, f := range []struct {
		name string
		zero bool
	}{{"rate", o.cfg.Serve.Rate == 0}, {"burst", o.cfg.Serve.Burst == 0}, {"servesed", o.cfg.Serve.Seed == 0}} {
		if f.zero {
			return fmt.Sprintf("-%s must be nonzero (omit it for the default)", f.name)
		}
	}
	if _, err := o.cfg.Serve.Deadline(); err != nil {
		return fmt.Sprintf("bad -deadline: %v", err)
	}
	if o.set["watchdog"] {
		d, err := fault.ParseDuration(o.watchdog)
		if err != nil {
			return fmt.Sprintf("bad -watchdog: %v", err)
		}
		if d <= 0 {
			return fmt.Sprintf("-watchdog must be positive, got %q", o.watchdog)
		}
		o.cfg.Watchdog = d
	}
	if o.benchFresh {
		// The refresh runs a fixed invocation matrix. Only the global mode
		// flags in refreshForwarded carry into it; any other flag would
		// silently not apply.
		names := make([]string, 0, len(o.set))
		for f := range o.set {
			names = append(names, f)
		}
		sort.Strings(names)
		for _, f := range names {
			if f != "bench-refresh" && f != "bench-dir" && !refreshForwarded[f] {
				return fmt.Sprintf("-bench-refresh runs a fixed invocation set and is incompatible with -%s", f)
			}
		}
	}
	if o.set["bench-dir"] && !o.benchFresh {
		return "-bench-dir only applies with -bench-refresh"
	}
	return ""
}

// refreshForwarded names the global mode flags -bench-refresh passes on
// to every invocation it runs: neither changes a data block, so
// `-nocache -bench-refresh` regenerates the baselines on the inline
// (oracle) kernel path, and -parallel only sets the worker pool.
var refreshForwarded = map[string]bool{"nocache": true, "parallel": true}

// benchRefreshArgs lists the committed-baseline invocations, each
// prefixed with the forwarded mode flags o sets. They match the CI smoke
// jobs argument-for-argument, so a local -bench-refresh and the CI
// artifact describe the same runs.
func (o *options) benchRefreshArgs() [][]string {
	var mode []string
	if o.set["nocache"] {
		mode = append(mode, fmt.Sprintf("-nocache=%t", o.cfg.NoCache))
	}
	if o.set["parallel"] {
		mode = append(mode, "-parallel", strconv.Itoa(o.cfg.Parallel))
	}
	dir := o.benchDir
	subs := [][]string{
		{"-quick", "-exp", "serve", "-blades", "3", "-rate", "2", "-servesed", "7",
			"-json", filepath.Join(dir, "BENCH_serve.json")},
		{"-quick", "-exp", "fig7", "-json", filepath.Join(dir, "BENCH_sweep.json")},
		{"-quick", "-exp", "fleet", "-pools", "4", "-blades", "2", "-rate", "1.5", "-servesed", "7",
			"-json", filepath.Join(dir, "BENCH_fleet.json")},
		// Worker count and rep count are pinned so the deterministic half of
		// the race baseline is reproducible anywhere; the measured_* keys
		// that do move between machines are skipped by benchdiff.
		{"-quick", "-exp", "race", "-workers", "2", "-reps", "2",
			"-json", filepath.Join(dir, "BENCH_race.json")},
	}
	for i, sub := range subs {
		subs[i] = append(append([]string(nil), mode...), sub...)
	}
	return subs
}

func run(args []string, out, errw io.Writer) int {
	o, status := parseFlags(args, errw)
	if o == nil {
		return status
	}
	if msg := o.validate(); msg != "" {
		fmt.Fprintf(errw, "paperbench: %s\n", msg)
		fmt.Fprintln(errw, usageHint)
		return 2
	}

	if o.benchFresh {
		if err := os.MkdirAll(o.benchDir, 0o755); err != nil {
			fmt.Fprintf(errw, "paperbench: %v\n", err)
			return 1
		}
		for _, sub := range o.benchRefreshArgs() {
			fmt.Fprintf(out, "paperbench: refresh %s\n", strings.Join(sub, " "))
			if code := run(sub, out, errw); code != 0 {
				return code
			}
		}
		return 0
	}

	// The CPU profile streams into memory while the experiments run and is
	// committed atomically afterwards, like every other artifact.
	var cpuBuf bytes.Buffer
	if o.cpuProfile != "" {
		if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
			fmt.Fprintf(errw, "paperbench: %v\n", err)
			return 1
		}
	}
	code := runExperiments(o, out, errw)
	if o.cpuProfile != "" {
		pprof.StopCPUProfile()
		if err := atomicfile.WriteFile(o.cpuProfile, func(w io.Writer) error {
			_, err := w.Write(cpuBuf.Bytes())
			return err
		}); err != nil {
			fmt.Fprintf(errw, "paperbench: %v\n", err)
			return 1
		}
	}
	if o.memProfile != "" {
		runtime.GC() // settle the heap so the allocs profile is complete
		if err := atomicfile.WriteFile(o.memProfile, func(w io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(w, 0)
		}); err != nil {
			fmt.Fprintf(errw, "paperbench: %v\n", err)
			return 1
		}
	}
	return code
}

func runExperiments(o *options, out, errw io.Writer) int {
	cfg := o.cfg
	if o.tracePath != "" || o.metricsPath != "" {
		cfg.Collect = &experiments.Collector{}
	}
	w := out
	if o.jsonPath == "-" { // "-" routes JSON to stdout instead of tables
		w = io.Discard
	}
	jsonDoc := map[string]jsonEntry{}
	start := time.Now()
	for _, e := range experiments.All {
		if o.exp != "all" && o.exp != e.Name {
			continue
		}
		fmt.Fprintf(w, "==== %s %s\n", e.Name, strings.Repeat("=", 68-len(e.Name)))
		t0 := time.Now()
		data, err := e.Run(cfg, w)
		if err != nil {
			fmt.Fprintf(errw, "paperbench: %s: %v\n", e.Name, err)
			// A degenerate serve configuration is a usage error, not a
			// failed run: exit 2 with the hint, matching flag validation.
			var ce *serve.ConfigError
			if errors.As(err, &ce) {
				fmt.Fprintln(errw, usageHint)
				return 2
			}
			return 1
		}
		jsonDoc[e.Name] = jsonEntry{WallMS: float64(time.Since(t0).Microseconds()) / 1000, Data: data}
		fmt.Fprintln(w)
	}

	if o.tracePath != "" {
		if err := atomicfile.WriteFile(o.tracePath, cfg.Collect.WriteChromeTrace); err != nil {
			fmt.Fprintf(errw, "paperbench: %v\n", err)
			return 1
		}
	}
	if o.metricsPath != "" {
		if err := atomicfile.WriteFile(o.metricsPath, cfg.Collect.WriteMetricsJSON); err != nil {
			fmt.Fprintf(errw, "paperbench: %v\n", err)
			return 1
		}
	}

	if o.jsonPath == "" {
		return 0
	}
	doc := struct {
		Config struct {
			Quick    bool   `json:"quick"`
			Seed     uint64 `json:"seed"`
			Parallel int    `json:"parallel"`
			NoCache  bool   `json:"nocache"`
			MaxProcs int    `json:"gomaxprocs"`
		} `json:"config"`
		TotalWallMS float64              `json:"total_wall_ms"`
		Experiments map[string]jsonEntry `json:"experiments"`
	}{TotalWallMS: float64(time.Since(start).Microseconds()) / 1000, Experiments: jsonDoc}
	doc.Config.Quick = cfg.Quick
	doc.Config.Seed = cfg.Seed
	doc.Config.Parallel = cfg.Parallel
	doc.Config.NoCache = cfg.NoCache
	doc.Config.MaxProcs = runtime.GOMAXPROCS(0)

	writeDoc := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	var err error
	if o.jsonPath == "-" {
		err = writeDoc(out)
	} else {
		err = atomicfile.WriteFile(o.jsonPath, writeDoc)
	}
	if err != nil {
		fmt.Fprintf(errw, "paperbench: %v\n", err)
		return 1
	}
	return 0
}
