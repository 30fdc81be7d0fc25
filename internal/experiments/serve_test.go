package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cellport/internal/marvel"
)

// serveTestConfig is the quick default serve run on two blades, with a
// private artifact cache.
func serveTestConfig(parallel int) Config {
	cfg := DefaultConfig()
	cfg.Quick, cfg.Parallel, cfg.Artifacts = true, parallel, marvel.NewArtifactCache()
	cfg.Serve.Blades = 2
	return cfg
}

// TestServeExpParallelDeterminism pins the acceptance criterion for the
// serving experiment: with a fixed seed the serialized result is
// byte-identical across repeated runs and across -parallel 1 vs N.
func TestServeExpParallelDeterminism(t *testing.T) {
	measure := func(parallel int) []byte {
		t.Helper()
		res, err := ServeExp(serveTestConfig(parallel))
		if err != nil {
			t.Fatal(err)
		}
		doc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	seq := measure(1)
	if rerun := measure(1); !bytes.Equal(rerun, seq) {
		t.Fatalf("rerun diverged:\n got %s\nwant %s", rerun, seq)
	}
	if par := measure(8); !bytes.Equal(par, seq) {
		t.Fatalf("parallel=8 diverged from parallel=1:\n got %s\nwant %s", par, seq)
	}
}

// TestServeExpCollectsPerBlade checks the observability integration: an
// armed collector receives one labelled artifact per blade per policy,
// each carrying a trace recording and a metrics snapshot — so the Chrome
// export renders one process per blade.
func TestServeExpCollectsPerBlade(t *testing.T) {
	cfg := serveTestConfig(4)
	cfg.Collect = &Collector{}
	if _, err := ServeExp(cfg); err != nil {
		t.Fatal(err)
	}
	runs := cfg.Collect.Runs()
	want := 2 * (cfg.Serve.Blades + 1) // two policies × (blades + coordinator lane)
	if len(runs) != want {
		t.Fatalf("collected %d artifacts, want %d", len(runs), want)
	}
	coordLanes := 0
	for _, r := range runs {
		if strings.HasSuffix(r.Label, "/coordinator") {
			// Coordinator artifact: shed instants no blade held and
			// autoscale actions, trace only.
			coordLanes++
			if r.Trace == nil {
				t.Fatalf("artifact %q missing trace", r.Label)
			}
			continue
		}
		if !strings.HasPrefix(r.Label, "serve/estimator/blade") && !strings.HasPrefix(r.Label, "serve/round-robin/blade") {
			t.Fatalf("unexpected label %q", r.Label)
		}
		if r.Trace == nil || r.Metrics == nil {
			t.Fatalf("artifact %q missing trace or metrics", r.Label)
		}
	}
	if coordLanes != 2 {
		t.Fatalf("collected %d coordinator artifacts, want 2", coordLanes)
	}
	var buf bytes.Buffer
	if err := cfg.Collect.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"serve/estimator/blade0", "serve/round-robin/blade1"} {
		if !strings.Contains(buf.String(), label) {
			t.Fatalf("Chrome trace missing process %q", label)
		}
	}
	var mbuf bytes.Buffer
	if err := cfg.Collect.WriteMetricsJSON(&mbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mbuf.String(), `"serve/estimator/blade0"`) {
		t.Fatalf("metrics JSON missing blade entry: %s", mbuf.String())
	}
}

// TestServeExpRejectsUnrepresentableDeadline checks a DeadlineMS the
// femtosecond conversion cannot hold, or rounds to 0, is an error naming
// the field, not a run with deadlines silently off or automatic.
func TestServeExpRejectsUnrepresentableDeadline(t *testing.T) {
	for _, ms := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 3.6e6, 1e-13, 4.9e-13, math.SmallestNonzeroFloat64} {
		cfg := serveTestConfig(1)
		cfg.Serve.DeadlineMS = ms
		if _, err := ServeExp(cfg); err == nil || !strings.Contains(err.Error(), "Config.Serve.DeadlineMS") {
			t.Errorf("DeadlineMS %v: error %v, want one naming Config.Serve.DeadlineMS", ms, err)
		}
	}
}

// TestZeroIsNoServeDefault checks a zero Serve.Rate or Fleet.Pools is an
// error naming the field: DefaultConfig holds their defaults, and fleet
// and chaos divide by both.
func TestZeroIsNoServeDefault(t *testing.T) {
	cfg := serveTestConfig(1)
	cfg.Serve.Rate = 0
	if _, err := ChaosExp(cfg); err == nil || !strings.Contains(err.Error(), "Config.Serve.Rate") {
		t.Errorf("zero rate: error %v, want one naming Config.Serve.Rate", err)
	}
	cfg = serveTestConfig(1)
	cfg.Fleet.Pools = 0
	if _, err := FleetExp(cfg); err == nil || !strings.Contains(err.Error(), "Config.Fleet.Pools") {
		t.Errorf("zero pools: error %v, want one naming Config.Fleet.Pools", err)
	}
}

// TestServeExpsValidateBeforeCalibrating runs each experiment built on
// serveBase with a negative rate: each must fail naming Config.Rate, the
// field the caller set, before it calibrates, so the explicit cold cache
// sees no frame or model lookup.
func TestServeExpsValidateBeforeCalibrating(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Config) error
	}{
		{"serve", func(c Config) error { _, err := ServeExp(c); return err }},
		{"chaos", func(c Config) error { _, err := ChaosExp(c); return err }},
		{"fleet", func(c Config) error { _, err := FleetExp(c); return err }},
		{"race", func(c Config) error { _, err := RaceExp(c); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := serveTestConfig(1)
			cache := marvel.NewColdArtifactCache()
			cfg.Artifacts = cache
			cfg.Serve.Rate = -1
			err := tc.run(cfg)
			if err == nil || !strings.Contains(err.Error(), "Config.Rate") {
				t.Fatalf("error %v, want one naming Config.Rate", err)
			}
			if hits, misses := cache.Stats(); hits != 0 || misses != 0 {
				t.Fatalf("cache read %d hits, %d misses: the experiment calibrated before validating", hits, misses)
			}
		})
	}
}
