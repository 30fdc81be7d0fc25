package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cellport/internal/marvel"
)

func serveTestConfig(parallel int) Config {
	return Config{
		Quick:     true,
		Seed:      20070710,
		Parallel:  parallel,
		Artifacts: marvel.NewArtifactCache(),
		Serve:     ServeConfig{Blades: 2, Seed: 7},
	}
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
