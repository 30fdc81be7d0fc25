// Command perfbench is cellport's layered benchmark. It drives the
// simulated Cell machine, the serving layer built on the Eqs. 1–3
// estimator, and the real executor through their public entry points,
// times every call from outside, checks every output, and prints one
// JSON result line.
//
// From the repository root (run.sh builds it under .bench_build/):
//
//	bash perfbench/run.sh --workload port-race --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced pass: spans around every layer call, the
// machine and serving metrics registries switched on, and per-layer
// micro-drivers, written as a Chrome trace plus a per-layer JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"cellport/internal/marvel"
	"cellport/internal/serve"
)

// scenario is one workload: set-up builds the calibration the
// repetitions reuse, and rep runs one measured repetition. The serving
// configurations and the calibration feed the per-layer drivers.
type scenario interface {
	setup(b *bench) error
	rep(b *bench, traced bool) (repOut, error)
	calibration() (serve.Config, *serve.Calibration)
	loopConfig() serve.Config
	verifyConfig() serve.Config
}

// workloads lists every workload (BENCHMARK.json says why each exists)
// and the values its repetitions report besides the end-to-end metrics.
var workloads = []struct {
	name   string
	make   func(b *bench) scenario
	report []string
}{
	{"port-race", func(b *bench) scenario { return newPortRace(b) },
		[]string{"sim_points_per_s", "exec_images_per_s"}},
	{"fleet-ladder", func(b *bench) scenario { return newFleetLadder(b) },
		[]string{"host_requests_per_s", "goodput_frac", "latency_p50_vms", "latency_p99_vms", "latency_p95_vms", "max_rate_at_slo"}},
	{"verified-serve", func(b *bench) scenario { return newVerifiedServe(b) },
		[]string{"host_requests_per_s", "goodput_frac", "latency_p50_vms", "latency_p99_vms", "latency_p95_vms", "served"}},
}

// bench is the state one benchmark process shares across its calls.
type bench struct {
	seed  uint64
	procs int
	m     *meter
	chk   *checker
}

func (b *bench) layer(name string, fn func() error) error {
	_, err := b.m.time(kindLayer, name, fn)
	return err
}

func (b *bench) phase(name string, fn func() error) (time.Duration, error) {
	return b.m.time(kindPhase, name, fn)
}

// calibrate builds the service table on a fresh artifact cache, the way
// a new paperbench process does.
func calibrate(b *bench, base serve.Config) (*serve.Calibration, error) {
	c := base
	c.Artifacts = marvel.NewArtifactCache()
	var cal *serve.Calibration
	err := b.layer("serve.Calibrate", func() (err error) {
		cal, err = serve.Calibrate(c)
		return err
	})
	return cal, err
}

// repOut is one measured repetition: operations completed, host wall
// time, and its workload-named values.
type repOut struct {
	ops    float64
	wall   time.Duration
	values map[string]float64
}

type named struct {
	name  string
	value float64
}

// summarize returns the median over repetitions of each named value
// that every repetition reported.
func summarize(reps []repOut, names ...string) []named {
	var out []named
	for _, n := range names {
		var xs []float64
		for _, r := range reps {
			if v, ok := r.values[n]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == len(reps) && len(xs) > 0 {
			out = append(out, named{n, median(xs)})
		}
	}
	return out
}

// Repetition and set-up counts: at least minReps measured repetitions
// however long they take, and set-up repeated minSetups to maxSetups
// times within setupBudget.
const (
	minReps     = 3
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 3 * time.Second
)

func main() {
	workload := flag.String("workload", "", "workload to run: port-race, fleet-ladder or verified-serve")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "how long the measured repetitions run")
	traced := flag.Int("trace", 0, "0 measures end-to-end metrics untraced; 1 runs the traced per-layer pass")
	flag.Parse()
	os.Exit(run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1))
}

// outDir receives the traced pass's files, relative to the directory the
// benchmark runs in.
var outDir = filepath.Join(".bench_build", "perfbench-out")

func run(name string, seed uint64, seconds time.Duration, traced bool) int {
	var sc scenario
	var report []string
	b := &bench{seed: seed, chk: newChecker()}
	// One process, no more workers than CPUs and at most two; an explicit
	// GOMAXPROCS in the environment wins so runs can be pinned to one.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	}
	b.procs = runtime.GOMAXPROCS(0)
	for _, w := range workloads {
		if w.name == name {
			sc, report = w.make(b), w.report
		}
	}
	if sc == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	fmt.Printf("env workload=%s seed=%d nproc=%d gomaxprocs=%d trace=%v\n", name, seed, runtime.NumCPU(), b.procs, traced)

	var metrics map[string]float64
	var err error
	if traced {
		metrics, err = runTraced(b, name, sc, seconds)
	} else {
		metrics, err = runUntraced(b, sc, seconds, report)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	keys := make([]string, 0, len(b.chk.digests))
	for key := range b.chk.digests {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fmt.Printf("sha256 %s %s\n", key, b.chk.digests[key])
	}
	fmt.Printf("metric failed_frac = %.6g ratio (%d of %d operations)\n",
		failedFrac(b.chk.attempted, b.chk.failed), b.chk.failed, b.chk.attempted)
	for _, f := range b.chk.failures {
		fmt.Printf("FAILED %s\n", f)
	}
	if err := printResult(b, metrics); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if b.chk.failed > 0 || b.chk.attempted == 0 {
		return 1
	}
	return 0
}

// runUntraced measures the end-to-end metrics: set-up repeated and its
// median taken, one warm-up repetition, then repetitions until the time
// is up.
func runUntraced(b *bench, sc scenario, seconds time.Duration, report []string) (map[string]float64, error) {
	b.m = newMeter(false)
	var setups []float64
	t0 := time.Now()
	for len(setups) < minSetups || (len(setups) < maxSetups && time.Since(t0) < setupBudget) {
		runtime.GC()
		d, err := b.m.time(kindPhase, "setup", func() error { return sc.setup(b) })
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	if _, err := sc.rep(b, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var reps []repOut
	var rates, allocs, cpus []float64
	var ms runtime.MemStats
	t1 := time.Now()
	for len(reps) < minReps || time.Since(t1) < seconds {
		// Start every repetition from a collected heap, so one
		// repetition's garbage is not charged to the next.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		cpu0 := cpuTime()
		r, err := sc.rep(b, false)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, r.ops/(cpuTime()-cpu0).Seconds())
		runtime.ReadMemStats(&ms)
		reps = append(reps, r)
		rates = append(rates, r.ops/r.wall.Seconds())
		allocs = append(allocs, float64(ms.Mallocs-before)/r.ops)
	}

	base, cal := sc.calibration()
	res := map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     median(rates),
		"allocs_per_op": median(allocs),
		"est_error_pct": estErrorPct(cal, calGrid(base)),
	}
	for _, n := range summarize(reps, report...) {
		printMetric(n.name, n.value, "")
	}
	printMetric("est_error_pct", res["est_error_pct"], "")
	printMetric("setup_s", res["setup_s"], fmt.Sprintf("(median of %d, spread %.3f)", len(setups), spread(setups)))
	printMetric("ops_per_s", res["ops_per_s"], fmt.Sprintf("(median of %d reps, spread %.3f)", len(reps), spread(rates)))
	fmt.Printf("reps ops_per_s %.6g\n", rates)
	fmt.Printf("reps ops_per_cpu_s %.6g (median %.6g spread %.3f)\n", cpus, median(cpus), spread(cpus))
	printMetric("allocs_per_op", res["allocs_per_op"], fmt.Sprintf("(median of %d reps, spread %.3f)", len(reps), spread(allocs)))
	printMetric("max_rss_mb", maxRSSMB(), "")
	return res, nil
}

// cpuTime is the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runTraced is the traced pass: set-up and repetitions under spans with
// the metrics registries on, interleaved with untraced repetitions to
// price the tracing; then every per-layer driver on the workload's own
// inputs. It writes the Chrome trace and the per-layer JSON.
func runTraced(b *bench, name string, sc scenario, seconds time.Duration) (map[string]float64, error) {
	plain, traced := newMeter(false), newMeter(true)
	vals := map[string]float64{}
	var base serve.Config
	_, err := traced.time(kindWorkload, name, func() error {
		b.m = traced
		if _, err := b.phase("setup", func() error { return sc.setup(b) }); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		vals["serve.calibrate_s"] = rowOf(layerRows(traced.spans), "serve.Calibrate").TotalMS / 1e3

		// Alternate untraced and traced repetitions, the first pair as
		// warm-up. An untraced repetition sits under one span of its own
		// and records nothing inside it.
		var off, on []float64
		t0 := time.Now()
		for i := 0; len(on) < minReps || time.Since(t0) < seconds; i++ {
			var r repOut
			if _, err := b.m.time(kindRep, "untraced rep", func() (err error) {
				b.m = plain
				defer func() { b.m = traced }()
				runtime.GC()
				r, err = sc.rep(b, false)
				return err
			}); err != nil {
				return err
			}
			runtime.GC()
			rt, err := sc.rep(b, true)
			if err != nil {
				return err
			}
			if i > 0 {
				off = append(off, r.wall.Seconds())
				on = append(on, rt.wall.Seconds())
			}
		}
		vals["trace.overhead_frac"] = median(on)/median(off) - 1

		var cal *serve.Calibration
		base, cal = sc.calibration()
		var counts raceCounts
		var race repOut
		if _, err := b.phase("race pass", func() (err error) {
			race, err = raceRep(b, base, cal, true, &counts)
			return err
		}); err != nil {
			return err
		}
		vals["marvel.run_ported_ms"] = 1e3 / race.values["sim_points_per_s"]
		vals["exec.execute_ms_per_image"] = 1e3 / race.values["exec_images_per_s"]
		vals["sim.events"] = float64(counts.events)
		vals["eib.realloc_fast"] = float64(counts.reallocFast)
		vals["eib.realloc_waterfill"] = float64(counts.reallocFull)
		vals["mfc.dma_commands"] = float64(counts.dmaCommands)
		vals["mfc.dma_bytes"] = float64(counts.dmaBytes)
		if n := counts.cacheHits + counts.cacheMisses; n > 0 {
			vals["workcache.hit_ratio"] = float64(counts.cacheHits) / float64(n)
		}

		seq := base
		seq.Parallel = 1
		for _, d := range []struct {
			name string
			run  func() error
		}{
			{"kernels", func() error { return kernelDriver(b, base.Frame, vals) }},
			{"reference", func() error { return referenceDriver(b, base, vals) }},
			{"event storm", func() error { return eventStorm(b, vals) }},
			{"eib churn", func() error { return eibChurn(b, vals) }},
			{"exec graphs", func() error { return execOverhead(b, vals) }},
			{"serve", func() error { return serveDrivers(b, sc, vals) }},
			{"sequential calibration", func() error {
				ns, err := sample(func() (float64, error) {
					d, err := b.phase("calibrate", func() error {
						_, err := calibrate(b, seq)
						return err
					})
					return float64(d.Nanoseconds()), err
				})
				vals["serve.calibrate_kernel_share"] = kernelShare(base, vals, time.Duration(ns))
				return err
			}},
		} {
			if _, err := b.phase(d.name, d.run); err != nil {
				return fmt.Errorf("%s driver: %w", d.name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := layerRows(traced.spans)

	fmt.Printf("fact serve.calibrate_kernel_share = %.3f (features + img arithmetic over a sequential serve.Calibrate)\n",
		vals["serve.calibrate_kernel_share"])
	fmt.Printf("fact serve.loop_ns_per_req = %.0f ns\n", vals["serve.loop_ns_per_req"])
	fmt.Printf("fact serve.seq_over_sharded = %.3f at GOMAXPROCS 1, %.3f at GOMAXPROCS 2\n",
		vals["serve.seq_over_sharded_p1"], vals["serve.seq_over_sharded_p2"])
	for _, r := range rows {
		if r.Kind == kindLayer {
			fmt.Printf("layer %-34s calls %6d  total %10.2f ms  self %10.2f ms\n", r.Name, r.Calls, r.TotalMS, r.SelfMS)
		}
	}
	if err := writeTraceFiles(outDir, name, b, traced.spans, rows, vals); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	perLayer := map[string]float64{}
	for _, n := range names {
		printMetric(n, vals[n], "")
		if catalog[n].Scope == scopeLayer {
			perLayer[n] = vals[n]
		}
	}
	return perLayer, nil
}

// writeTraceFiles writes <workload>-seed<n>.trace.json (Chrome trace)
// and <workload>-seed<n>.layers.json: the span rows, and every metric of
// the traced pass with its catalogue entry — unit, direction, reason and
// the end-to-end metric it should move.
func writeTraceFiles(dir, name string, b *bench, spans []span, rows []layerRow, vals map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, b.seed))
	write := func(path string, fill func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fill(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
		return f.Close()
	}
	if err := write(stem+".trace.json", func(f *os.File) error {
		return writeChrome(f, "perfbench "+name, spans)
	}); err != nil {
		return err
	}
	err := write(stem+".layers.json", func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"workload":   name,
			"seed":       b.seed,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": b.procs,
			"rows":       rows,
			"metrics":    described(vals),
		})
	})
	if err == nil {
		fmt.Printf("wrote %s.trace.json and %s.layers.json\n", stem, stem)
	}
	return err
}

// printMetric prints one named metric with its unit from the catalogue.
func printMetric(name string, v float64, note string) {
	fmt.Printf("metric %s = %.6g %s %s\n", name, v, catalog[name].Unit, note)
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type describedValue struct {
	Value float64 `json:"value"`
	metricInfo
}

func described(vals map[string]float64) map[string]describedValue {
	out := map[string]describedValue{}
	for n, v := range vals {
		out[n] = describedValue{v, catalog[n]}
	}
	return out
}

func withUnits(vals map[string]float64) map[string]valueUnit {
	out := map[string]valueUnit{}
	for n, v := range vals {
		out[n] = valueUnit{v, catalog[n].Unit}
	}
	return out
}

// printResult prints the result line: correctness, operation counts,
// and the metrics with their units.
func printResult(b *bench, metrics map[string]float64) error {
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{b.chk.failed == 0 && b.chk.attempted > 0, b.chk.attempted, b.chk.failed, withUnits(metrics)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
