package main

// Where a metric appears: the untraced result line (end-to-end), the
// traced result line (per-layer), or only the printed report and the
// per-layer JSON.
const (
	scopeEndToEnd = "end_to_end"
	scopeLayer    = "per_layer"
	scopeReport   = "report"
)

// metricInfo describes one metric: its unit, which direction is better,
// why it is measured, and — for per-layer metrics — which end-to-end
// figure on which workload it should move.
type metricInfo struct {
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Scope  string `json:"scope"`
	Why    string `json:"why"`
	Moves  string `json:"moves,omitempty"`
}

// catalog is every metric the benchmark prints. BENCHMARK.json lists
// the end-to-end and per-layer ones with the same units and directions
// (TestBenchmarkJSONMatchesCatalog).
var catalog = map[string]metricInfo{
	// End-to-end, reported on every workload.
	"setup_s": {"s", "lower", scopeEndToEnd,
		"artifact and calibration build time, median of several fresh set-ups", ""},
	"ops_per_s": {"1/s", "higher", scopeEndToEnd,
		"work per host second: race points on port-race, requests offered on fleet-ladder, requests served (each through a verified dispatch) on verified-serve", ""},
	"allocs_per_op": {"allocs/op", "lower", scopeEndToEnd,
		"heap objects allocated per operation, median over repetitions: the churn the garbage collector pays for", ""},
	"est_error_pct": {"%", "lower", scopeEndToEnd,
		"mean |Eqs. 1-3 estimate - simulated service| / simulated service over the k > 1 calibration points", ""},

	// Printed with their workload.
	"sim_points_per_s":    {"1/s", "higher", scopeReport, "port-race: simulated calibration points per host second", ""},
	"exec_images_per_s":   {"1/s", "higher", scopeReport, "port-race: images executed for real per host second", ""},
	"host_requests_per_s": {"1/s", "higher", scopeReport, "simulated requests per host second: offered on fleet-ladder, served on verified-serve", ""},
	"goodput_frac": {"ratio", "higher", scopeReport,
		"requests served on time over requests offered (fleet-ladder rung 1.0, verified-serve)", ""},
	"latency_p50_vms": {"vms", "lower", scopeReport, "median request latency in virtual ms", ""},
	"latency_p99_vms": {"vms", "lower", scopeReport, "p99 request latency in virtual ms, quoted with at least ten samples beyond it", ""},
	"latency_p95_vms": {"vms", "lower", scopeReport, "p95 request latency, quoted when p99 lacks ten samples beyond it", ""},
	"max_rate_at_slo": {"x", "higher", scopeReport, "highest ladder rung with >= 99% of offered requests served on time", ""},
	"served":          {"count", "higher", scopeReport, "verified-serve: requests served (at least 1,000 for p99)", ""},
	"failed_frac":     {"ratio", "lower", scopeReport, "operations failing any check over operations attempted", ""},
	"max_rss_mb":      {"MB", "lower", scopeReport, "peak resident memory of the workload process (GC-timing dependent)", ""},
	"img.synth_ns_per_px": {"ns/px", "lower", scopeReport, "frame synthesis (img.Synthesize) host ns per pixel",
		"setup_s on every workload; feeds serve.calibrate_kernel_share"},

	// Per-layer, from the traced pass on every workload.
	"features.ch_ns_per_px": {"ns/px", "lower", scopeLayer, "color histogram accumulator host ns per pixel",
		"ops_per_s on port-race; setup_s on fleet-ladder and verified-serve; no change on fleet-ladder ops_per_s"},
	"features.cc_ns_per_px": {"ns/px", "lower", scopeLayer, "color correlogram accumulator host ns per pixel",
		"ops_per_s on port-race; setup_s on fleet-ladder and verified-serve; no change on fleet-ladder ops_per_s"},
	"features.tx_ns_per_px": {"ns/px", "lower", scopeLayer, "texture accumulator host ns per pixel",
		"ops_per_s on port-race; setup_s on fleet-ladder and verified-serve; no change on fleet-ladder ops_per_s"},
	"features.eh_ns_per_px": {"ns/px", "lower", scopeLayer, "edge histogram accumulator host ns per pixel",
		"ops_per_s on port-race; setup_s on fleet-ladder and verified-serve; no change on fleet-ladder ops_per_s"},
	"img.hsv_ns_per_px": {"ns/px", "lower", scopeLayer, "HSV 166-bin quantization host ns per pixel",
		"ops_per_s on port-race; setup_s on fleet-ladder and verified-serve"},
	"marvel.run_ported_ms": {"ms", "lower", scopeLayer, "host ms per simulated calibration point (Validate on, fresh cache)",
		"ops_per_s (sim_points_per_s) on port-race"},
	"marvel.reference_ms": {"ms", "lower", scopeLayer, "host ms per cold ArtifactCache.Reference build",
		"ops_per_s on port-race; setup_s everywhere"},
	"workcache.hit_ratio": {"ratio", "higher", scopeLayer, "artifact cache hits over lookups in one race pass",
		"ops_per_s (sim_points_per_s) on port-race"},
	"sim.events": {"count", "lower", scopeLayer, "simulator events over one race pass of the calibration grid (exact)",
		"ops_per_s on port-race and verified-serve"},
	"sim.events_per_s": {"1/s", "higher", scopeLayer, "sim.Engine events per host second on a seeded event storm",
		"ops_per_s on port-race and verified-serve"},
	"eib.realloc_fast": {"count", "higher", scopeLayer, "EIB closed-form bandwidth reallocations in one race pass (exact)",
		"ops_per_s on port-race"},
	"eib.realloc_waterfill": {"count", "lower", scopeLayer, "EIB full waterfill reallocations in one race pass (exact)",
		"ops_per_s on port-race"},
	"eib.realloc_ns": {"ns", "lower", scopeLayer, "host ns per EIB reallocation under seeded flow churn",
		"ops_per_s on port-race"},
	"mfc.dma_commands": {"count", "lower", scopeLayer, "MFC DMA commands in one race pass (exact)", "ops_per_s on port-race"},
	"mfc.dma_bytes":    {"count", "lower", scopeLayer, "MFC DMA bytes in and out in one race pass (exact)", "ops_per_s on port-race"},
	"serve.calibrate_s": {"s", "lower", scopeLayer, "host seconds per serve.Calibrate on a fresh cache",
		"setup_s on fleet-ladder and verified-serve"},
	"serve.calibrate_kernel_share": {"ratio", "lower", scopeLayer,
		"features + img arithmetic share of a sequential serve.Calibrate (pixel-count model)", "setup_s everywhere"},
	"serve.loop_ns_per_req": {"ns", "lower", scopeLayer, "host ns per request of the table-only serving loop",
		"ops_per_s on fleet-ladder"},
	"serve.epochs": {"count", "lower", scopeLayer, "sharded-engine epoch barriers of the loop run (exact)",
		"ops_per_s on fleet-ladder and verified-serve"},
	"serve.barriers": {"count", "lower", scopeLayer, "finite-deadline barriers of the loop run (exact)",
		"ops_per_s on fleet-ladder and verified-serve"},
	"serve.window_admits": {"count", "higher", scopeLayer, "arrivals admitted inside a lookahead window (exact)",
		"ops_per_s on fleet-ladder and verified-serve"},
	"serve.router_overrides": {"count", "higher", scopeLayer, "estimator overrides of the hash route (exact)",
		"goodput_frac and max_rate_at_slo on fleet-ladder"},
	"serve.scale_ups":   {"count", "lower", scopeLayer, "autoscaler pool activations (exact)", "goodput_frac and max_rate_at_slo on fleet-ladder"},
	"serve.scale_downs": {"count", "higher", scopeLayer, "autoscaler pool drains (exact)", "goodput_frac and max_rate_at_slo on fleet-ladder"},
	"serve.rerouted":    {"count", "lower", scopeLayer, "requests re-routed after losing their blade (exact)", "goodput_frac and max_rate_at_slo on fleet-ladder"},
	"serve.shed_rejected": {"count", "lower", scopeLayer, "requests shed by per-blade backpressure (exact)",
		"goodput_frac and max_rate_at_slo on fleet-ladder"},
	"serve.shed_expired": {"count", "lower", scopeLayer, "requests shed past their deadline (exact)",
		"goodput_frac and max_rate_at_slo on fleet-ladder"},
	"serve.shed_rerouted": {"count", "lower", scopeLayer, "re-routed requests whose backoff overshot the deadline (exact)",
		"goodput_frac and max_rate_at_slo on fleet-ladder"},
	"serve.shed_exhausted": {"count", "lower", scopeLayer, "requests that exhausted their retry budget (exact)",
		"goodput_frac and max_rate_at_slo on fleet-ladder"},
	"serve.shed_global": {"count", "lower", scopeLayer, "requests shed by fleet-wide backpressure (exact)",
		"goodput_frac and max_rate_at_slo on fleet-ladder"},
	"serve.verify_ms_per_batch": {"ms", "lower", scopeLayer, "full-fidelity run minus the table-only run, per batch",
		"ops_per_s on verified-serve"},
	"serve.seq_over_sharded_p1": {"ratio", "higher", scopeLayer, "full-fidelity wall of the sequential loop over the sharded engine at GOMAXPROCS 1",
		"ops_per_s on verified-serve"},
	"serve.seq_over_sharded_p2": {"ratio", "higher", scopeLayer, "full-fidelity wall of the sequential loop over the sharded engine at GOMAXPROCS 2",
		"ops_per_s on verified-serve"},
	"exec.task_overhead_ns": {"ns", "lower", scopeLayer, "host ns per task of empty Go/Then/WhenAll graphs",
		"ops_per_s (exec_images_per_s) on port-race"},
	"exec.steals_per_task": {"ratio", "lower", scopeLayer, "work-stealing steals per task on the same graphs",
		"ops_per_s (exec_images_per_s) on port-race"},
	"exec.execute_ms_per_image": {"ms", "lower", scopeLayer, "host ms per image executed for real by exec.Backend",
		"ops_per_s (exec_images_per_s) on port-race"},
	"trace.overhead_frac": {"ratio", "lower", scopeLayer, "traced repetition wall over untraced, minus one", ""},
}
