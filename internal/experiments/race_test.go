package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cellport/internal/exec"
	"cellport/internal/marvel"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// stripMeasuredKeys removes every measured_-prefixed map key,
// recursively — the same rule benchdiff applies. What remains is the
// deterministic half of a race report.
func stripMeasuredKeys(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, val := range x {
			if strings.HasPrefix(k, "measured_") {
				continue
			}
			out[k] = stripMeasuredKeys(val)
		}
		return out
	case []any:
		out := make([]any, len(x))
		for i := range x {
			out[i] = stripMeasuredKeys(x[i])
		}
		return out
	default:
		return v
	}
}

// raceFingerprint is the race report's deterministic JSON image.
func raceFingerprint(t *testing.T, r *RaceResult) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(stripMeasuredKeys(v))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRaceExpProperties runs the quick race end to end and pins its
// structural guarantees: full point coverage, bit-exact executed
// outputs, sim halves that equal the calibration table exactly, and
// sane per-point arithmetic on both clocks.
func TestRaceExpProperties(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quick = true
	cfg.Race = RaceConfig{Workers: 2, Reps: 1}
	r, err := RaceExp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := 2 * 2 * r.MaxBatch // geometries × schemes × batch sizes
	if len(r.Points) != wantPoints {
		t.Fatalf("race covered %d points, want %d", len(r.Points), wantPoints)
	}
	if !r.AllBitExact {
		t.Error("executed outputs diverged from the host references")
	}
	if !r.AllTableMatch {
		t.Error("re-run sim services diverged from the calibration table")
	}
	for _, p := range r.Points {
		if p.Mismatches != 0 {
			t.Errorf("%s tall=%v k=%d: %d bit-exactness mismatches", p.Scheme, p.Tall, p.K, p.Mismatches)
		}
		if p.SimService <= 0 || p.WallNS <= 0 {
			t.Errorf("%s tall=%v k=%d: non-positive service (sim %v, wall %d ns)", p.Scheme, p.Tall, p.K, p.SimService, p.WallNS)
		}
		if p.K == 1 && (p.SimSpeedup != 1 || p.Speedup != 1) {
			t.Errorf("%s tall=%v k=1: speedups (%v, %v), want (1, 1) by definition", p.Scheme, p.Tall, p.SimSpeedup, p.Speedup)
		}
		if p.RelErr < 0 {
			t.Errorf("%s tall=%v k=%d: negative relative error %v", p.Scheme, p.Tall, p.K, p.RelErr)
		}
	}
	if r.Agreement < 0 || r.Agreement > 1 {
		t.Errorf("ranking agreement %v outside [0, 1]", r.Agreement)
	}
	if r.Workers != 2 || r.Reps != 1 {
		t.Errorf("measured config (%d workers, %d reps), want (2, 1)", r.Workers, r.Reps)
	}
}

// TestRaceDeterministicHalf runs the race bare and instrumented: after
// stripping measured_ keys the two reports must be byte-identical — the
// simulated half is a pure function of the configuration, and
// instrumentation (like the wall clock) is invisible to it. It also
// checks the collector's clock-domain discipline: every artifact label
// carries a domain prefix and exec metrics never leak into sim runs or
// vice versa.
func TestRaceDeterministicHalf(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quick = true
	cfg.Race = RaceConfig{Workers: 2, Reps: 1}
	bare, err := RaceExp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collect = &Collector{}
	inst, err := RaceExp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := raceFingerprint(t, bare), raceFingerprint(t, inst); !bytes.Equal(a, b) {
		t.Errorf("deterministic half differs bare vs instrumented:\n%s\nvs\n%s", a, b)
	}

	runs := cfg.Collect.Runs()
	if len(runs) == 0 {
		t.Fatal("instrumented race collected no artifacts")
	}
	sims, execs := 0, 0
	for _, r := range runs {
		switch {
		case strings.HasPrefix(r.Label, trace.DomainSim):
			sims++
			if r.Metrics != nil {
				for _, sm := range r.Metrics.Samples {
					if sm.Component == "exec" {
						t.Errorf("sim run %q carries exec-domain metrics", r.Label)
						break
					}
				}
			}
		case strings.HasPrefix(r.Label, trace.DomainExec):
			execs++
			if r.Metrics == nil {
				t.Errorf("exec run %q carries no metrics", r.Label)
				continue
			}
			if len(r.Metrics.Samples) == 0 {
				t.Errorf("exec run %q carries no metrics", r.Label)
			}
			for _, sm := range r.Metrics.Samples {
				if sm.Component != "exec" {
					t.Errorf("exec run %q carries %s/%s, want the exec component only", r.Label, sm.Component, sm.Name)
					break
				}
			}
		default:
			t.Errorf("artifact label %q carries no clock-domain prefix", r.Label)
		}
	}
	if sims == 0 || execs == 0 {
		t.Fatalf("expected artifacts in both domains, got %d sim and %d exec", sims, execs)
	}
}

// TestRaceTraceGolden pins the mixed-domain Chrome-trace artifact: one
// document holding a sim/ process (virtual time) and an exec/ process
// (wall time scaled through trace.WallNanos), with the domains visible
// in the process names and never sharing a track. The exec half comes
// from a real backend run with one worker and an injected clock, so the
// artifact is byte-stable; regenerate with `go test -run RaceTraceGolden
// -update ./internal/experiments/`.
func TestRaceTraceGolden(t *testing.T) {
	c := &Collector{}

	simRec := trace.NewRecorder()
	simRec.Span("PPE", 0, sim.Time(2*sim.Millisecond), trace.KindCompute, "preprocess")
	simRec.Span("SPE0", sim.Time(2*sim.Millisecond), sim.Time(5*sim.Millisecond), trace.KindCompute, "CHExtract")
	c.AddArtifacts(trace.DomainSim+"race/job-dist/std/k1", simRec, nil)

	var tick time.Duration
	b := exec.NewBackend(exec.Options{
		Workers:    1,
		Reps:       1,
		Artifacts:  marvel.NewArtifactCache(),
		Instrument: true,
		Now: func(string) time.Duration {
			tick += time.Millisecond
			return tick
		},
	})
	defer b.Close()
	run, err := b.Execute(marvel.ExecPoint{
		Workload: marvel.Workload{Images: 1, W: 352, H: 96, Seed: 11},
		Scenario: marvel.SingleSPE,
		Variant:  marvel.Optimized,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddArtifacts(trace.DomainExec+"race/job-dist/std/k1", run.Trace, run.Metrics)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "race_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("mixed-domain trace drifted from golden (regenerate with -update if intended)\ngot %d bytes, want %d", buf.Len(), len(want))
	}
	// Structural guards independent of the exact bytes: both domains
	// present, and no process name without a domain.
	out := buf.String()
	if !strings.Contains(out, trace.DomainSim+"race/") || !strings.Contains(out, trace.DomainExec+"race/") {
		t.Fatal("trace artifact does not name both clock domains")
	}
}
