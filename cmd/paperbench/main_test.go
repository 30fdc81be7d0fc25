package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cellport/internal/experiments"
)

// TestFlagValidationMatrix pins the CLI contract: inconsistent flag
// combinations exit with status 2 and a one-line usage hint before any
// simulation runs, and valid combinations pass validation.
func TestFlagValidationMatrix(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		status  int
		errWant string // substring of stderr; "" means no error expected
	}{
		{"negative parallel", []string{"-parallel", "-2", "-exp", "eqns"}, 2, "-parallel must be >= 0"},
		{"unknown exp", []string{"-exp", "fig9"}, 2, `unknown experiment "fig9"`},
		{"unparseable flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"faults flag with wrong exp", []string{"-exp", "table1", "-faults", "crash:spe=0,at=5ms"}, 2, "-faults only applies"},
		{"faultseed with wrong exp", []string{"-exp", "eqns", "-faultseed", "3"}, 2, "-faultseed only applies"},
		{"rate with wrong exp", []string{"-exp", "faults", "-rate", "2"}, 2, "-rate only applies"},
		{"blades with wrong exp", []string{"-exp", "fig6", "-blades", "4"}, 2, "-blades only applies"},
		{"deadline with wrong exp", []string{"-exp", "profile", "-deadline", "100"}, 2, "-deadline only applies"},
		{"servesed with wrong exp", []string{"-exp", "hosts", "-servesed", "9"}, 2, "-servesed only applies"},
		{"burst with wrong exp", []string{"-exp", "overhead", "-burst", "3"}, 2, "-burst only applies"},
		{"fullsim with wrong exp", []string{"-exp", "eqns", "-fullsim"}, 2, "-fullsim only applies"},
		{"watchdog with wrong exp", []string{"-exp", "table1", "-watchdog", "250ms"}, 2, "-watchdog only applies"},
		{"watchdog bad duration", []string{"-exp", "faults", "-watchdog", "soon"}, 2, "bad -watchdog"},
		{"watchdog zero", []string{"-exp", "faults", "-watchdog", "0ms"}, 2, "-watchdog must be positive"},
		{"serve flags with chaos exp", []string{"-exp", "chaos", "-rate", "2", "-blades", "8"}, -1, ""},
		{"faults flag with chaos exp", []string{"-exp", "chaos", "-faults", "blade-crash:blade=0,at=5ms"}, -1, ""},
		{"watchdog with faults exp", []string{"-exp", "faults", "-watchdog", "250ms"}, -1, ""},
		{"watchdog with chaos exp", []string{"-exp", "chaos", "-watchdog", "1s"}, -1, ""},
		{"bench-refresh with exp", []string{"-bench-refresh", "-exp", "serve"}, 2, "incompatible with -exp"},
		{"bench-refresh with json", []string{"-bench-refresh", "-json", "x.json"}, 2, "incompatible with -json"},
		{"bench-refresh with profile", []string{"-bench-refresh", "-cpuprofile", "cpu.pb"}, 2, "incompatible with -cpuprofile"},
		{"bench-dir without refresh", []string{"-bench-dir", "bench"}, 2, "-bench-dir only applies"},
		{"bench-refresh with quick", []string{"-bench-refresh", "-quick"}, 2, "incompatible with -quick"},
		{"bench-refresh with seed", []string{"-bench-refresh", "-seed", "3"}, 2, "incompatible with -seed"},
		{"bench-refresh with nocache", []string{"-nocache", "-bench-refresh"}, -1, ""},
		{"bench-refresh with parallel", []string{"-bench-refresh", "-parallel", "1"}, -1, ""},
		{"faults flag with faults exp", []string{"-exp", "faults", "-faults", "crash:spe=0,at=5ms"}, -1, ""},
		{"faults flag with serve exp", []string{"-exp", "serve", "-faultseed", "3"}, -1, ""},
		{"serve flags with serve exp", []string{"-exp", "serve", "-rate", "2", "-blades", "2", "-deadline", "-1", "-servesed", "9", "-burst", "1"}, -1, ""},
		{"fullsim with serve exp", []string{"-exp", "serve", "-fullsim"}, -1, ""},
		{"pools with wrong exp", []string{"-exp", "serve", "-pools", "4"}, 2, "-pools only applies"},
		{"autoscale with wrong exp", []string{"-exp", "chaos", "-autoscale=false"}, 2, "-autoscale only applies"},
		{"flash with wrong exp", []string{"-exp", "table1", "-flash=false"}, 2, "-flash only applies"},
		{"zero pools", []string{"-exp", "fleet", "-pools", "0"}, 2, "-pools must be >= 1"},
		{"negative pools", []string{"-exp", "fleet", "-pools", "-3"}, 2, "-pools must be >= 1"},
		{"fleet flags with fleet exp", []string{"-exp", "fleet", "-pools", "4", "-autoscale=false", "-flash=false"}, -1, ""},
		{"serve flags with fleet exp", []string{"-exp", "fleet", "-rate", "1.5", "-blades", "2"}, -1, ""},
		{"faults flag with fleet exp", []string{"-exp", "fleet", "-faults", "blade-crash:blade=0,at=5ms"}, -1, ""},
		{"workers with wrong exp", []string{"-exp", "serve", "-workers", "2"}, 2, "-workers only applies"},
		{"reps with wrong exp", []string{"-exp", "fig7", "-reps", "3"}, 2, "-reps only applies"},
		{"negative workers", []string{"-exp", "race", "-workers", "-1"}, 2, "-workers must be >= 0"},
		{"negative reps", []string{"-exp", "race", "-reps", "-2"}, 2, "-reps must be >= 0"},
		{"race flags with race exp", []string{"-exp", "race", "-workers", "2", "-reps", "2"}, -1, ""},
		{"race flags with all", []string{"-workers", "4"}, -1, ""},
		{"serve flags with all", []string{"-rate", "2"}, -1, ""},
		{"bench-refresh alone", []string{"-bench-refresh", "-bench-dir", "fresh"}, -1, ""},
		{"profiles with any exp", []string{"-exp", "eqns", "-cpuprofile", "cpu.pb", "-memprofile", "mem.pb"}, -1, ""},
		{"plain quick eqns", []string{"-quick", "-exp", "eqns"}, -1, ""},
		{"deadline NaN", []string{"-exp", "serve", "-deadline", "NaN"}, 2, "bad -deadline"},
		{"deadline Inf", []string{"-exp", "serve", "-deadline", "Inf"}, 2, "bad -deadline"},
		{"deadline -Inf", []string{"-exp", "serve", "-deadline", "-Inf"}, 2, "bad -deadline"},
		{"deadline overflowing", []string{"-exp", "serve", "-deadline", "1e300"}, 2, "bad -deadline"},
		{"deadline an hour", []string{"-exp", "serve", "-deadline", "3.6e6"}, 2, "bad -deadline"},
		{"deadline ten minutes", []string{"-exp", "serve", "-deadline", "6e5"}, -1, ""},
		{"deadline rounding to 0fs", []string{"-exp", "serve", "-deadline", "1e-13"}, 2, "bad -deadline"},
		{"deadline of 1fs", []string{"-exp", "serve", "-deadline", "1e-12"}, -1, ""},
		{"zero rate", []string{"-exp", "fleet", "-rate", "0"}, 2, "-rate must be nonzero"},
		{"zero burst", []string{"-exp", "serve", "-burst", "0"}, 2, "-burst must be nonzero"},
		{"zero servesed", []string{"-exp", "chaos", "-servesed", "0"}, 2, "-servesed must be nonzero"},
		{"zero blades", []string{"-exp", "chaos", "-blades", "0"}, -1, ""},
		{"zero reps and workers", []string{"-exp", "race", "-reps", "0", "-workers", "0"}, -1, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errw bytes.Buffer
			o, status := parseFlags(tc.args, &errw)
			if o == nil {
				if tc.status != 2 {
					t.Fatalf("parseFlags failed unexpectedly: %s", errw.String())
				}
				if status != 2 {
					t.Fatalf("parse failure returned status %d, want 2", status)
				}
				if !strings.Contains(errw.String(), tc.errWant) {
					t.Fatalf("stderr %q does not contain %q", errw.String(), tc.errWant)
				}
				return
			}
			msg := o.validate()
			if tc.status == 2 {
				if msg == "" {
					t.Fatalf("validate accepted %v, want rejection", tc.args)
				}
				if !strings.Contains(msg, tc.errWant) {
					t.Fatalf("message %q does not contain %q", msg, tc.errWant)
				}
			} else if msg != "" {
				t.Fatalf("validate rejected %v: %s", tc.args, msg)
			}
		})
	}
}

// TestNoFlagsParseToDefaultConfig checks experiments.DefaultConfig() is
// the one source of run defaults: a command line without flags parses
// to it field by field.
func TestNoFlagsParseToDefaultConfig(t *testing.T) {
	o, _ := parseFlags(nil, io.Discard)
	if o == nil || o.validate() != "" {
		t.Fatal("an empty command line was rejected")
	}
	got, want := reflect.ValueOf(o.cfg), reflect.ValueOf(experiments.DefaultConfig())
	for i := 0; i < got.NumField(); i++ {
		if g, w := got.Field(i).Interface(), want.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Errorf("Config.%s parses to %+v, DefaultConfig has %+v", got.Type().Field(i).Name, g, w)
		}
	}
}

// TestDefaultFleetIsTheCLIFleet checks FleetExp on a quick
// DefaultConfig() is the run `paperbench -quick -exp fleet` prints: the
// autoscaled flash-crowd fleet, which drains at least one pool.
func TestDefaultFleetIsTheCLIFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full serve calibration")
	}
	cfg := experiments.DefaultConfig()
	cfg.Quick = true
	res, err := experiments.FleetExp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.Fleet == nil || res.Fleet.Fleet.ScaleDowns < 1 {
		t.Fatalf("the default fleet never scaled down: %+v", res.Fleet.Fleet)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(t.TempDir(), "fleet.json")
	var out, errw bytes.Buffer
	if status := run([]string{"-quick", "-exp", "fleet", "-json", jsonPath}, &out, &errw); status != 0 {
		t.Fatalf("status %d, stderr: %s", status, errw.String())
	}
	var got bytes.Buffer
	if err := json.Compact(&got, experimentData(t, readFileT(t, jsonPath))["fleet"]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("paperbench -quick -exp fleet data differs from FleetExp(DefaultConfig()):\n got %s\nwant %s", got.Bytes(), want)
	}
}

// TestRunRejectsBeforeExecuting checks the full run() path: a rejected
// flag matrix entry must exit 2 with the usage hint and produce no
// experiment output.
func TestRunRejectsBeforeExecuting(t *testing.T) {
	var out, errw bytes.Buffer
	if status := run([]string{"-exp", "table1", "-rate", "2"}, &out, &errw); status != 2 {
		t.Fatalf("status %d, want 2 (stderr: %s)", status, errw.String())
	}
	if !strings.Contains(errw.String(), usageHint) {
		t.Fatalf("stderr missing usage hint: %s", errw.String())
	}
	if out.Len() != 0 {
		t.Fatalf("rejected invocation still produced output: %s", out.String())
	}
}

// TestServeFaultSeedZeroIsFaultFree checks -faultseed's documented rule
// for serve: 0 arms no fault plan, so the run prints exactly what the run
// without the flag prints, while seed 1 (faults' and chaos' reading of 0)
// prints something else.
func TestServeFaultSeedZeroIsFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full serve calibration")
	}
	outputs := map[string]string{}
	for _, extra := range [][]string{nil, {"-faultseed", "0"}, {"-faultseed", "1"}} {
		var out, errw bytes.Buffer
		args := append([]string{"-quick", "-exp", "serve"}, extra...)
		if status := run(args, &out, &errw); status != 0 {
			t.Fatalf("%v: status %d, stderr: %s", args, status, errw.String())
		}
		outputs[strings.Join(extra, " ")] = out.String()
	}
	if outputs["-faultseed 0"] != outputs[""] {
		t.Errorf("-faultseed 0 output differs from the run without the flag:\n%s\nvs\n%s", outputs["-faultseed 0"], outputs[""])
	}
	if outputs["-faultseed 1"] == outputs[""] {
		t.Error("-faultseed 1 prints the fault-free run; the seeded plan was not armed")
	}
}

// TestRunServeQuick smoke-tests the serve experiment end to end through
// the CLI: valid invocation, JSON sidecar with the expected report
// fields, zero exit.
func TestRunServeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full serve calibration")
	}
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	var out, errw bytes.Buffer
	args := []string{"-quick", "-exp", "serve", "-rate", "2", "-blades", "2", "-servesed", "7", "-json", jsonPath}
	if status := run(args, &out, &errw); status != 0 {
		t.Fatalf("status %d, stderr: %s", status, errw.String())
	}
	raw := readFileT(t, jsonPath)
	var doc struct {
		Experiments map[string]struct {
			Data struct {
				Estimator  map[string]json.RawMessage `json:"estimator"`
				RoundRobin map[string]json.RawMessage `json:"round_robin"`
			} `json:"data"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("sidecar did not parse: %v", err)
	}
	serve, ok := doc.Experiments["serve"]
	if !ok {
		t.Fatalf("sidecar missing serve experiment: %s", raw)
	}
	for _, rep := range []map[string]json.RawMessage{serve.Data.Estimator, serve.Data.RoundRobin} {
		for _, field := range []string{"policy", "offered_rps", "achieved_rps", "served", "shed_rejected",
			"latency_p50_fs", "latency_p95_fs", "latency_p99_fs", "per_blade"} {
			if _, ok := rep[field]; !ok {
				t.Fatalf("serve report missing %q: %s", field, raw)
			}
		}
	}
	if !strings.Contains(out.String(), "Serving layer") {
		t.Fatalf("table output missing serve render: %s", out.String())
	}
}

// TestRunRejectsDegenerateServeConfig checks that serve values only the
// library-level Config.Validate catches (a negative rate, burst or blade
// count, a sub-unity burst) exit 2 with the field named and the usage
// hint, instead of running on a default or reporting a failed run. Only
// zero selects a default. The chaos and fleet experiments name the
// flag's field too (fleet's, not the OfferedRPS it derives from the
// rate).
func TestRunRejectsDegenerateServeConfig(t *testing.T) {
	for _, tc := range []struct {
		exp, flag, value, field string
	}{
		{"serve", "-rate", "-1", "Rate"},
		{"serve", "-burst", "-3", "Burst"},
		{"serve", "-blades", "-2", "Blades"},
		{"serve", "-burst", "0.5", "Burst"},
		{"chaos", "-rate", "-1", "Rate"},
		{"fleet", "-rate", "-1", "Rate"},
	} {
		name := tc.flag + "=" + tc.value
		if tc.exp != "serve" {
			name = tc.exp + "/" + name
		}
		t.Run(name, func(t *testing.T) {
			var out, errw bytes.Buffer
			args := []string{"-quick", "-exp", tc.exp, tc.flag, tc.value}
			if status := run(args, &out, &errw); status != 2 {
				t.Fatalf("status %d, want 2 (stderr: %s)", status, errw.String())
			}
			if !strings.Contains(errw.String(), "Config."+tc.field) {
				t.Fatalf("stderr does not name the rejected field %s: %s", tc.field, errw.String())
			}
			if !strings.Contains(errw.String(), usageHint) {
				t.Fatalf("stderr missing usage hint: %s", errw.String())
			}
		})
	}
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// experimentData decodes a sidecar and returns each experiment's data
// section (wall times stripped), for comparing runs that must agree on
// results but not on host timing.
func experimentData(t *testing.T, raw []byte) map[string]json.RawMessage {
	t.Helper()
	var doc struct {
		Experiments map[string]struct {
			Data json.RawMessage `json:"data"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("sidecar did not parse: %v", err)
	}
	out := map[string]json.RawMessage{}
	for name, e := range doc.Experiments {
		out[name] = e.Data
	}
	return out
}

// TestRunServeParallelInvariantCLI checks the serve experiment end to
// end: -parallel 1 and the default worker count must produce identical
// experiment data through the CLI.
func TestRunServeParallelInvariantCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full serve calibration")
	}
	dir := t.TempDir()
	invoke := func(name string, extra ...string) map[string]json.RawMessage {
		jsonPath := filepath.Join(dir, name+".json")
		args := append([]string{"-quick", "-exp", "serve", "-rate", "2", "-blades", "2", "-servesed", "7",
			"-json", jsonPath}, extra...)
		var out, errw bytes.Buffer
		if status := run(args, &out, &errw); status != 0 {
			t.Fatalf("%s: status %d, stderr: %s", name, status, errw.String())
		}
		return experimentData(t, readFileT(t, jsonPath))
	}
	serial := invoke("serial", "-parallel", "1")
	if got := invoke("default"); string(got["serve"]) != string(serial["serve"]) {
		t.Fatalf("default parallelism diverged from -parallel 1:\n got %s\nwant %s", got["serve"], serial["serve"])
	}
}

// TestRunChaosParallelInvariantCLI checks the chaos experiment end to
// end: the seeded blade-lifecycle schedule must produce identical
// experiment data through the CLI at -parallel 1 and the default worker
// count, and the chaos run's ledger must conserve.
func TestRunChaosParallelInvariantCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full serve calibration")
	}
	dir := t.TempDir()
	invoke := func(name string, extra ...string) map[string]json.RawMessage {
		jsonPath := filepath.Join(dir, name+".json")
		args := append([]string{"-quick", "-exp", "chaos", "-servesed", "7",
			"-json", jsonPath}, extra...)
		var out, errw bytes.Buffer
		if status := run(args, &out, &errw); status != 0 {
			t.Fatalf("%s: status %d, stderr: %s", name, status, errw.String())
		}
		return experimentData(t, readFileT(t, jsonPath))
	}
	serial := invoke("serial", "-parallel", "1")
	if got := invoke("default"); string(got["chaos"]) != string(serial["chaos"]) {
		t.Fatalf("default parallelism diverged from -parallel 1:\n got %s\nwant %s", got["chaos"], serial["chaos"])
	}
	var res struct {
		Spec  string `json:"spec"`
		Chaos struct {
			Requests      int `json:"requests"`
			Served        int `json:"served"`
			ShedRejected  int `json:"shed_rejected"`
			ShedExpired   int `json:"shed_expired"`
			ShedRerouted  int `json:"shed_rerouted"`
			ShedExhausted int `json:"shed_exhausted"`
			BladeCrashes  int `json:"blade_crashes"`
		} `json:"chaos"`
	}
	if err := json.Unmarshal(serial["chaos"], &res); err != nil {
		t.Fatalf("chaos data did not parse: %v", err)
	}
	if res.Spec == "" || res.Chaos.BladeCrashes == 0 {
		t.Fatalf("chaos run fired no blade crash: %s", serial["chaos"])
	}
	sum := res.Chaos.Served + res.Chaos.ShedRejected + res.Chaos.ShedExpired +
		res.Chaos.ShedRerouted + res.Chaos.ShedExhausted
	if sum != res.Chaos.Requests {
		t.Fatalf("chaos ledger leaks: %d != %d requests", sum, res.Chaos.Requests)
	}
}

// TestRunFleetParallelInvariantCLI checks the fleet experiment end to
// end: the routed, autoscaled fleet under flash-crowd load must produce
// identical experiment data through the CLI at -parallel 1 and the
// default worker count, the six-term ledger must conserve, and the
// autoscaler must demonstrably drain off-peak.
func TestRunFleetParallelInvariantCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full serve calibration")
	}
	dir := t.TempDir()
	invoke := func(name string, extra ...string) map[string]json.RawMessage {
		jsonPath := filepath.Join(dir, name+".json")
		args := append([]string{"-quick", "-exp", "fleet", "-pools", "4", "-blades", "2",
			"-rate", "1.5", "-servesed", "7", "-json", jsonPath}, extra...)
		var out, errw bytes.Buffer
		if status := run(args, &out, &errw); status != 0 {
			t.Fatalf("%s: status %d, stderr: %s", name, status, errw.String())
		}
		if !strings.Contains(out.String(), "Fleet-scale serving") {
			t.Fatalf("%s: table output missing fleet render: %s", name, out.String())
		}
		return experimentData(t, readFileT(t, jsonPath))
	}
	serial := invoke("serial", "-parallel", "1")
	if got := invoke("default"); string(got["fleet"]) != string(serial["fleet"]) {
		t.Fatalf("default parallelism diverged from -parallel 1:\n got %s\nwant %s", got["fleet"], serial["fleet"])
	}
	var res struct {
		Fleet struct {
			Requests      int `json:"requests"`
			Served        int `json:"served"`
			Late          int `json:"late"`
			ShedRejected  int `json:"shed_rejected"`
			ShedExpired   int `json:"shed_expired"`
			ShedRerouted  int `json:"shed_rerouted"`
			ShedExhausted int `json:"shed_exhausted"`
			ShedGlobal    int `json:"shed_global"`
			Stats         struct {
				Pools      int `json:"pools"`
				ActiveMin  int `json:"active_min"`
				ScaleDowns int `json:"scale_downs"`
			} `json:"fleet"`
		} `json:"fleet"`
		GoodputFleet  int `json:"goodput_fleet"`
		GoodputSingle int `json:"goodput_single"`
	}
	if err := json.Unmarshal(serial["fleet"], &res); err != nil {
		t.Fatalf("fleet data did not parse: %v", err)
	}
	f := res.Fleet
	sum := f.Served + f.ShedRejected + f.ShedExpired + f.ShedRerouted + f.ShedExhausted + f.ShedGlobal
	if sum != f.Requests {
		t.Fatalf("fleet ledger leaks: %d != %d requests", sum, f.Requests)
	}
	if f.Stats.Pools != 4 {
		t.Fatalf("fleet ran %d pools, want 4", f.Stats.Pools)
	}
	if f.Stats.ScaleDowns == 0 || f.Stats.ActiveMin >= f.Stats.Pools {
		t.Fatalf("autoscaler never drained: %s", serial["fleet"])
	}
	if res.GoodputFleet <= res.GoodputSingle {
		t.Fatalf("fleet goodput %d does not beat the single pool %d", res.GoodputFleet, res.GoodputSingle)
	}
}

// TestRunProfilesWritten checks -cpuprofile/-memprofile produce non-empty
// pprof artifacts without perturbing the run's exit status.
func TestRunProfilesWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	var out, errw bytes.Buffer
	args := []string{"-quick", "-exp", "eqns", "-cpuprofile", cpu, "-memprofile", mem}
	if status := run(args, &out, &errw); status != 0 {
		t.Fatalf("status %d, stderr: %s", status, errw.String())
	}
	for _, p := range []string{cpu, mem} {
		if b := readFileT(t, p); len(b) == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestBenchRefreshForwardsModeFlags checks -bench-refresh passes -nocache
// and -parallel on to every invocation it runs, and nothing else.
func TestBenchRefreshForwardsModeFlags(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		nocache  bool
		parallel int
	}{
		{[]string{"-bench-refresh"}, false, 0},
		{[]string{"-nocache", "-bench-refresh"}, true, 0},
		{[]string{"-bench-refresh", "-nocache=false", "-parallel", "3"}, false, 3},
	} {
		var errw bytes.Buffer
		o, _ := parseFlags(tc.args, &errw)
		if o == nil || o.validate() != "" {
			t.Fatalf("%v: rejected: %s", tc.args, errw.String())
		}
		for _, sub := range o.benchRefreshArgs() {
			so, _ := parseFlags(sub, &errw)
			if so == nil || so.validate() != "" {
				t.Fatalf("%v: sub-invocation %v rejected: %s", tc.args, sub, errw.String())
			}
			if so.cfg.NoCache != tc.nocache || so.cfg.Parallel != tc.parallel {
				t.Errorf("%v: sub-invocation %v runs nocache=%t parallel=%d, want %t, %d",
					tc.args, sub, so.cfg.NoCache, so.cfg.Parallel, tc.nocache, tc.parallel)
			}
		}
	}
}

// TestRunBenchRefresh checks -bench-refresh regenerates every committed
// baseline into the requested directory with the expected experiments,
// and that -nocache reaches each run: the cold-path (oracle) sidecars
// record nocache and carry the same data as the cached ones.
func TestRunBenchRefresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full baseline matrix")
	}
	dir := t.TempDir()
	var out, errw bytes.Buffer
	if status := run([]string{"-bench-refresh", "-bench-dir", dir}, &out, &errw); status != 0 {
		t.Fatalf("status %d, stderr: %s", status, errw.String())
	}
	coldDir := t.TempDir()
	if status := run([]string{"-nocache", "-bench-refresh", "-bench-dir", coldDir}, &out, &errw); status != 0 {
		t.Fatalf("-nocache status %d, stderr: %s", status, errw.String())
	}
	for _, name := range []string{"BENCH_serve.json", "BENCH_sweep.json", "BENCH_fleet.json", "BENCH_race.json"} {
		for _, tc := range []struct {
			dir     string
			nocache bool
		}{{dir, false}, {coldDir, true}} {
			var doc struct {
				Config struct {
					NoCache bool `json:"nocache"`
				} `json:"config"`
			}
			if err := json.Unmarshal(readFileT(t, filepath.Join(tc.dir, name)), &doc); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if doc.Config.NoCache != tc.nocache {
				t.Errorf("%s in %s records nocache=%t, want %t", name, tc.dir, doc.Config.NoCache, tc.nocache)
			}
		}
		if name == "BENCH_race.json" {
			continue // its measured_* keys are host wall facts
		}
		warm := experimentData(t, readFileT(t, filepath.Join(dir, name)))
		cold := experimentData(t, readFileT(t, filepath.Join(coldDir, name)))
		for exp, data := range warm {
			if !bytes.Equal(data, cold[exp]) {
				t.Errorf("%s: %s data differs between the memo and -nocache", name, exp)
			}
		}
	}
	serveData := experimentData(t, readFileT(t, filepath.Join(dir, "BENCH_serve.json")))
	if _, ok := serveData["serve"]; !ok {
		t.Fatalf("BENCH_serve.json missing serve experiment: %v", serveData)
	}
	sweepData := experimentData(t, readFileT(t, filepath.Join(dir, "BENCH_sweep.json")))
	if _, ok := sweepData["fig7"]; !ok {
		t.Fatalf("BENCH_sweep.json missing fig7 experiment: %v", sweepData)
	}
	fleetData := experimentData(t, readFileT(t, filepath.Join(dir, "BENCH_fleet.json")))
	if _, ok := fleetData["fleet"]; !ok {
		t.Fatalf("BENCH_fleet.json missing fleet experiment: %v", fleetData)
	}
	raceData := experimentData(t, readFileT(t, filepath.Join(dir, "BENCH_race.json")))
	if _, ok := raceData["race"]; !ok {
		t.Fatalf("BENCH_race.json missing race experiment: %v", raceData)
	}
}

// TestRunRaceQuick smoke-tests the estimator race end to end through
// the CLI: the sidecar carries the per-point error report with the
// deterministic and measured halves split by the measured_ prefix.
func TestRunRaceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real kernel execution")
	}
	jsonPath := filepath.Join(t.TempDir(), "race.json")
	var out, errw bytes.Buffer
	args := []string{"-quick", "-exp", "race", "-workers", "2", "-reps", "1", "-json", jsonPath}
	if status := run(args, &out, &errw); status != 0 {
		t.Fatalf("status %d, stderr: %s", status, errw.String())
	}
	raw := readFileT(t, jsonPath)
	var doc struct {
		Experiments map[string]struct {
			Data struct {
				Points        []map[string]json.RawMessage `json:"points"`
				AllTableMatch bool                         `json:"all_table_match"`
				AllBitExact   bool                         `json:"all_bit_exact"`
			} `json:"data"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("sidecar did not parse: %v", err)
	}
	race, ok := doc.Experiments["race"]
	if !ok {
		t.Fatalf("sidecar missing race experiment: %s", raw)
	}
	if !race.Data.AllBitExact || !race.Data.AllTableMatch {
		t.Fatalf("race run lost its deterministic guarantees: %s", raw)
	}
	if len(race.Data.Points) == 0 {
		t.Fatalf("race report has no points: %s", raw)
	}
	for _, field := range []string{"scheme", "k", "sim_service", "est_service", "sim_speedup", "table_match",
		"measured_wall_ns", "measured_speedup", "measured_rel_err"} {
		if _, ok := race.Data.Points[0][field]; !ok {
			t.Fatalf("race point missing %q: %s", field, raw)
		}
	}
	if !strings.Contains(out.String(), "Estimator race") {
		t.Fatalf("table output missing race render: %s", out.String())
	}
}
