package serve

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cellport/internal/marvel"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// copyCal returns a calibration whose service table can be tampered with
// without touching the shared one.
func copyCal(cal *Calibration) *Calibration {
	c := *cal
	c.services = make(map[svcKey]svc, len(cal.services))
	for k, v := range cal.services {
		c.services[k] = v
	}
	return &c
}

// firstDispatchers replays cfg with verification off and tracing on and
// reads, from the per-blade batch spans, the lowest blade that dispatched
// each service key. The trace is independent of the verification
// bookkeeping under test, so it serves as the oracle for which blade a
// divergence must name.
func firstDispatchers(t *testing.T, cfg Config) map[svcKey]int {
	t.Helper()
	cfg.FullFidelity = false
	cfg.Instrument = true
	rep := mustRun(t, cfg)
	first := map[svcKey]int{}
	for _, bs := range rep.PerBlade {
		for _, sp := range bs.Trace.Spans() {
			if sp.Kind != trace.KindCompute || !strings.HasPrefix(sp.Label, "batch#") {
				continue
			}
			var n, k int
			var scheme string
			if _, err := fmt.Sscanf(sp.Label, "batch#%d ×%d %s", &n, &k, &scheme); err != nil {
				t.Fatalf("unparsable batch span %q: %v", sp.Label, err)
			}
			key := svcKey{Scheme: SchemeJob, Tall: strings.HasSuffix(sp.Label, " tall"), K: k}
			if scheme == SchemeData.String() {
				key.Scheme = SchemeData
			}
			if _, ok := first[key]; !ok {
				first[key] = bs.Blade
			}
		}
	}
	return first
}

// fsText prints a service record the way the divergence error must: every
// duration in exact femtoseconds.
func fsText(s svc) string {
	return fmt.Sprintf("{Service:%dfs Warmup:%dfs Degraded:%v DegTime:%dfs}",
		int64(s.Service), int64(s.Warmup), s.Degraded, int64(s.DegTime))
}

// TestFullFidelityPlantedDivergence plants a wrong table entry for every
// dispatched key, one field at a time, and requires -fullsim to fail
// with the same error on 1 and 8 verification workers: the lowest blade
// that dispatched the key, the key, and the measured and tabled records
// with a 1 fs difference visible. A wrong entry for a key the run never
// dispatches is not checked, so that run succeeds.
func TestFullFidelityPlantedDivergence(t *testing.T) {
	base := quickConfig()
	base.Requests = 24
	base.FullFidelity = true
	cal := mustCal(t)

	type tc struct {
		name   string
		key    svcKey
		tamper func(*svc)
	}
	fields := []struct {
		name   string
		tamper func(*svc)
	}{
		{"service", func(s *svc) { s.Service++ }},
		{"warmup", func(s *svc) { s.Warmup++ }},
		{"degraded", func(s *svc) { s.Degraded = !s.Degraded }},
	}
	base.Cal = cal
	dispatched := firstDispatchers(t, base)
	keys := make([]svcKey, 0, len(cal.services))
	for k := range cal.services {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	var cases []tc
	never := -1
	for i, k := range keys {
		if _, ok := dispatched[k]; !ok {
			if never < 0 {
				never = i
			}
			continue
		}
		for _, f := range fields {
			cases = append(cases, tc{fmt.Sprintf("%s/tall=%v/k=%d/%s", k.Scheme, k.Tall, k.K, f.name), k, f.tamper})
		}
	}
	if len(cases) == 0 || never < 0 {
		t.Fatalf("scenario dispatched %d of %d calibrated keys: need some but not all", len(dispatched), len(keys))
	}
	cases = append(cases, tc{"never-dispatched", keys[never], func(s *svc) { s.Service++ }})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := copyCal(cal)
			v := bad.services[c.key]
			c.tamper(&v)
			bad.services[c.key] = v
			cfg := base
			cfg.Cal = bad

			// The tampered entry can move the loop's own schedule, so the
			// oracle replays the tampered table.
			want := ""
			if blade, ok := firstDispatchers(t, cfg)[c.key]; ok {
				want = fmt.Sprintf("serve: blade %d: full-fidelity dispatch %s/tall=%v/k=%d diverged from calibration: got %s want %s",
					blade, c.key.Scheme, c.key.Tall, c.key.K, fsText(cal.services[c.key]), fsText(v))
			} else if c.name != "never-dispatched" {
				t.Fatalf("tampered run no longer dispatches %v", c.key)
			}
			for _, par := range []int{1, 8} {
				run := cfg
				run.Parallel = par
				_, err := Run(run)
				got := ""
				if err != nil {
					got = err.Error()
				}
				if got != want {
					t.Errorf("parallel=%d: error\n got %q\nwant %q", par, got, want)
				}
			}
		})
	}
}

// less orders keys: scheme, then geometry, then batch size.
func (k svcKey) less(o svcKey) bool {
	if k.Scheme != o.Scheme {
		return k.Scheme < o.Scheme
	}
	if k.Tall != o.Tall {
		return !k.Tall
	}
	return k.K < o.K
}

// TestFullFidelityVerifiesEachKeyOnce counts nested simulations through
// the kernel memo: a verified run must make exactly the memo lookups of
// one direct RunPorted per distinct dispatched key, however many batches
// dispatched each key.
func TestFullFidelityVerifiesEachKeyOnce(t *testing.T) {
	cfg := quickConfig()
	cfg.Cal = mustCal(t)
	cfg.FullFidelity = true
	dispatched := firstDispatchers(t, cfg)
	rep := mustRun(t, cfg) // warms the memo; counts below are lookups
	if rep.Batches <= len(dispatched) {
		t.Fatalf("%d batches over %d keys: scenario repeats no key", rep.Batches, len(dispatched))
	}
	lookups := func() uint64 {
		h, m := cfg.Artifacts.KernelStats()
		return h + m
	}

	before := lookups()
	mustRun(t, cfg)
	mustRun(t, cfg)
	verified := lookups() - before

	before = lookups()
	d := cfg.withDefaults()
	for k := range dispatched {
		if _, err := marvel.RunPorted(d.portedConfig(k.Scheme.scenario(), k.Tall, k.K, true)); err != nil {
			t.Fatal(err)
		}
	}
	direct := lookups() - before
	if direct == 0 {
		t.Fatal("direct runs made no kernel memo lookups")
	}
	if verified != 2*direct {
		t.Fatalf("two verified runs made %d kernel lookups, want 2 × %d (one nested run per distinct key)", verified, direct)
	}
}

// TestFullFidelityByteIdentical checks verified-dispatch mode: re-running
// the machine once per dispatched key after the loop must not perturb
// the report at all.
func TestFullFidelityByteIdentical(t *testing.T) {
	base := quickConfig()
	base.Cal = mustCal(t)
	base.Requests = 24
	golden := marshal(t, mustRun(t, base))

	ff := base
	ff.FullFidelity = true
	if got := marshal(t, mustRun(t, ff)); !bytes.Equal(got, golden) {
		t.Fatalf("full-fidelity diverged:\n got %s\nwant %s", got, golden)
	}
}

// TestFullFidelityCatchesStaleCalibration poisons one calibration table
// entry and checks verified dispatch fails the run with the blade's
// divergence instead of silently serving from a stale table.
func TestFullFidelityCatchesStaleCalibration(t *testing.T) {
	poisoned := copyCal(mustCal(t))
	k := svcKey{Scheme: SchemeJob, Tall: false, K: 1}
	v := poisoned.services[k]
	v.Service += sim.Microsecond
	poisoned.services[k] = v

	cfg := quickConfig()
	cfg.Cal = poisoned
	cfg.Requests = 16
	cfg.FullFidelity = true
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("poisoned calibration served without a full-fidelity error")
	}
	if !strings.Contains(err.Error(), "full-fidelity") || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("unexpected error: %v", err)
	}
}
