package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"cellport/internal/fault"
	"cellport/internal/marvel"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// goldenTest pins one scenario's serialized report by its SHA-256: any
// change to admission, dispatch, lifecycle, routing or the fold that
// moves a byte of the report fails here. must, when set, asserts the
// scenario still reaches the paths it is in the table for, so a digest
// cannot silently pin a run that no longer exercises them.
type goldenTest struct {
	name   string
	config func(t *testing.T) Config
	must   func(t *testing.T, rep *Report)
	sha256 string
}

func runGoldenTests(t *testing.T, tests []goldenTest) {
	t.Helper()
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustRun(t, tc.config(t))
			checkLedger(t, rep)
			if tc.must != nil {
				tc.must(t, rep)
			}
			sum := sha256.Sum256(marshal(t, rep))
			if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
				t.Fatalf("report digest %s, want %s:\n%s", got, tc.sha256, marshal(t, rep))
			}
		})
	}
}

// quick returns quickConfig on the shared calibration, adjusted by mut.
func quick(mut func(*Config)) func(t *testing.T) Config {
	return func(t *testing.T) Config {
		cfg := quickConfig()
		cfg.Cal = mustCal(t)
		mut(&cfg)
		return cfg
	}
}

// fleetChaos is fleetConfig under the seeded fleet chaos schedule for
// seed, adjusted by mut before the schedule is derived.
func fleetChaos(seed uint64, mut func(*Config)) func(t *testing.T) Config {
	return func(t *testing.T) Config {
		cfg := fleetConfig(t)
		mut(&cfg)
		total := cfg.Pools * cfg.Blades
		offered := cfg.Rate * cfg.Cal.perBlade * float64(total)
		cfg.Faults = fault.SeededFleet(seed, total, sim.FromSeconds(float64(cfg.Requests)/offered))
		return cfg
	}
}

// TestGoldenReports pins the report of every scenario the determinism
// oracles used to compare across event loops: both policies, overload,
// finite deadlines, an armed machine-fault plan, -fullsim, blade chaos,
// the routed fleet and fleet chaos (one schedule reaching both lifecycle
// shed reasons), and a fleet that drains in a trough and scales back up
// at the next peak. The digests were taken before the sharded engine was
// deleted, from its loop and the sequential one, which agreed on every
// scenario; fleet-scale-up's was taken before the autoscaler's tuning
// fields became constants.
func TestGoldenReports(t *testing.T) {
	tests := []goldenTest{
		{name: "estimator", config: quick(func(*Config) {}),
			sha256: "906a06bbd12e50a03ed7359fadd0dbebb46f5494a675e97cbc22668ce0d011ae"},
		{name: "round-robin", config: quick(func(c *Config) { c.Policy = PolicyRoundRobin }),
			sha256: "05ce55db9fff9df4d32110c82edd7c297b4ca8e176b2e065bef45b2ecdb1bfcf"},
		{name: "overload", config: quick(func(c *Config) { c.Rate, c.Requests = 2, 128 }),
			sha256: "e04d3677aff056edd9ffbdc1903bf7eb536b85d7276307411c3ce2eed582986a"},
		{name: "deadlines", config: quick(func(c *Config) { c.Rate, c.Deadline = 2, 150*sim.Millisecond }),
			must: func(t *testing.T, rep *Report) {
				if rep.ShedExpired == 0 {
					t.Fatal("scenario sheds nothing as expired")
				}
			},
			sha256: "5fc94b359a56a7baec7645202a47597afac508a9a2c8e2764f758e6fca7f4e69"},
		{name: "machine-faults", config: func(t *testing.T) Config {
			cfg := quickConfig().withDefaults()
			cfg.Faults = fault.Seeded(7, cfg.MachineConfig.NumSPEs)
			cfg.Rate = 2
			cal, err := Calibrate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Cal = cal
			return cfg
		}, must: func(t *testing.T, rep *Report) {
			if rep.Degraded == 0 {
				t.Fatal("no request was served degraded")
			}
		}, sha256: "6551d141e3d622a6f5686a0b08de30bb2532928277aa5efb6c634485c7e81502"},
		{name: "fullsim", config: quick(func(c *Config) { c.Requests, c.FullFidelity = 24, true }),
			sha256: "228a46be0d78ff9b8c5797e26b34e1043ea4a8a8e68f696716c3011da8b610f6"},
		{name: "chaos", config: func(t *testing.T) Config {
			cfg := chaosConfig(t)
			cfg.Faults = fault.SeededFleet(7, cfg.Blades, runSpan(t, cfg))
			return cfg
		}, sha256: "2001927b522cbde745f414ea652d0a9f7a68514c59c992a97469f2408ac4fc01"},
		{name: "fleet", config: func(t *testing.T) Config { return fleetConfig(t) },
			sha256: "045551647c471d47ff32101541864587281dfcf6438320f1c888aa2ac4845ca0"},
		{name: "fleet-chaos-3", config: fleetChaos(3, func(*Config) {}),
			sha256: "f34f26d45a2c8bd4a9fd280e5652aed5bf4f3d102f1be9c8850b08cc7f36dfb1"},
		{name: "fleet-chaos-both-sheds", config: fleetChaos(5, func(c *Config) {
			c.Requests = 192
			c.RetryBudget, c.RetryBackoff, c.Deadline = 1, 40*sim.Millisecond, 200*sim.Millisecond
		}), must: func(t *testing.T, rep *Report) {
			if rep.ShedRerouted == 0 || rep.ShedExhausted == 0 || rep.Fleet.ScaleDowns == 0 {
				t.Fatalf("shed %d rerouted, %d exhausted, %d scale-downs; want all three",
					rep.ShedRerouted, rep.ShedExhausted, rep.Fleet.ScaleDowns)
			}
		}, sha256: "31282295722348396f8017b91ae027dbc7b35aae07f4360d331d65a12f338a7d"},
		{name: "fleet-scale-up", config: func(t *testing.T) Config {
			// Two diurnal days at half the fleet's capacity: the first
			// trough drains pools, the second peak brings one back.
			cfg := fleetConfig(t)
			cfg.Rate = 0.5
			offered := cfg.Rate * cfg.Cal.perBlade * float64(cfg.Pools*cfg.Blades)
			cfg.Load.Period = sim.FromSeconds(float64(cfg.Requests) / offered / 2)
			return cfg
		}, must: func(t *testing.T, rep *Report) {
			if rep.Fleet.ScaleUps == 0 || rep.Fleet.ScaleDowns == 0 {
				t.Fatalf("%d scale-ups, %d scale-downs; want both", rep.Fleet.ScaleUps, rep.Fleet.ScaleDowns)
			}
		}, sha256: "af2482f9f98336e98793501fc263e05a64fe9c3312df5ae8f4742dce6eeaf69d"},
	}
	runGoldenTests(t, tests)
}

// traceDigest hashes every blade's trace, in blade order, then the
// coordinator's: each span's lane, endpoints, kind and label and each
// instant's lane, time and label, so a label that moves a byte changes
// the digest.
func traceDigest(rep *Report) string {
	h := sha256.New()
	write := func(name string, rec *trace.Recorder) {
		fmt.Fprintf(h, "%s\n", name)
		for _, sp := range rec.Spans() {
			fmt.Fprintf(h, "S %s %d %d %c %s\n", sp.Lane, int64(sp.Start), int64(sp.End), sp.Kind, sp.Label)
		}
		for _, in := range rec.Instants() {
			fmt.Fprintf(h, "I %s %d %s\n", in.Lane, int64(in.At), in.Label)
		}
	}
	for _, bs := range rep.PerBlade {
		write(fmt.Sprintf("blade %d", bs.Blade), bs.Trace)
	}
	write(coordLane, rep.Coordinator)
	return hex.EncodeToString(h.Sum(nil))
}

// hasInstant reports whether any blade's trace holds an instant whose
// label starts with prefix.
func hasInstant(rep *Report, prefix string) bool {
	for _, bs := range rep.PerBlade {
		for _, in := range bs.Trace.Instants() {
			if strings.HasPrefix(in.Label, prefix) {
				return true
			}
		}
	}
	return false
}

// TestGoldenTraces pins the per-blade and coordinator traces of the
// instrumented runs byte for byte: batch and warmup spans, lifecycle
// instants (including the formatted stall length), and blade and
// coordinator shed instants. Labels are formatted only when a recorder
// is attached, so this is what proves the uninstrumented fast path and
// the recorded one agree on every label.
func TestGoldenTraces(t *testing.T) {
	instrumented := func(cfg func(t *testing.T) Config) func(t *testing.T) Config {
		return func(t *testing.T) Config {
			c := cfg(t)
			c.Instrument = true
			return c
		}
	}
	tests := []goldenTest{
		{name: "estimator", config: instrumented(quick(func(*Config) {})),
			sha256: "38074a49c1681d0ed306930718f8d71bbf493e2542a05074ef99366409bfb595"},
		{name: "deadlines", config: instrumented(quick(func(c *Config) { c.Rate, c.Deadline = 2, 150*sim.Millisecond })),
			sha256: "427658dd6ed67389d74865a771bfe4e1212a545ed0d7a6f49357b26363b55464"},
		{name: "fullsim", config: instrumented(quick(func(c *Config) { c.Requests, c.FullFidelity = 24, true })),
			sha256: "580c48c0c26f77d20ac38f7839c42881a386106f3bc27a43f19c9cdfde2b5044"},
		{name: "chaos", config: instrumented(func(t *testing.T) Config {
			cfg := chaosConfig(t)
			cfg.Faults = fault.SeededFleet(7, cfg.Blades, runSpan(t, cfg))
			return cfg
		}), must: func(t *testing.T, rep *Report) {
			if !hasInstant(rep, "blade-stall ") {
				t.Fatal("no blade-stall instant recorded")
			}
		}, sha256: "6ad1fdde058c3704b299e0557a483b63e29ba7d5b8f50d13f4c5ba691907c4d2"},
		{name: "fleet-chaos-both-sheds", config: instrumented(fleetChaos(5, func(c *Config) {
			c.Requests = 192
			c.RetryBudget, c.RetryBackoff, c.Deadline = 1, 40*sim.Millisecond, 200*sim.Millisecond
		})), must: func(t *testing.T, rep *Report) {
			if rep.Fleet.ScaleDowns == 0 || len(rep.Coordinator.Instants()) == 0 {
				t.Fatalf("%d scale-downs, %d coordinator instants; want both",
					rep.Fleet.ScaleDowns, len(rep.Coordinator.Instants()))
			}
		}, sha256: "aac16932a188df79a411607d8d126cf57473d2a83b2d131dbb29027265222000"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustRun(t, tc.config(t))
			if tc.must != nil {
				tc.must(t, rep)
			}
			if got := traceDigest(rep); got != tc.sha256 {
				t.Fatalf("trace digest %s, want %s", got, tc.sha256)
			}
		})
	}
}

// TestGoldenSeededSweep pins a spread of arrival seeds at a light and an
// overloaded rate, digested the same way as TestGoldenReports.
func TestGoldenSeededSweep(t *testing.T) {
	var tests []goldenTest
	sweep := []string{
		"44219136c00216411fed11c2839ab2da992c9c077d00e8f2142741867b151b18",
		"c0dc7ca0fd98c2e69d23c013918c7a9001755e49d6ff16b84a6dec6cadd1f1c1",
		"fdae0faee24bf63242ddcc504b97330e6270ebca79cfa758ed016358c677fc23",
		"9cded85e4312e0c1cb23672afdb496ded5c5e47c8d9cd43cee7b27431626c8c6",
		"798e5540fdda76ced65d2157d66e5c42ce1bc2e178b31a2c090de708c549b2e3",
		"b0200ae81d013f386d1e1de421244a85bcd59c6d61f0a627cb21dd03d324e873",
		"3ea1fbae44cc1f683c9b6db4aba16b0253dfc6a14800921d793d5bdd89dded9f",
		"952d2644ca4898b1c4706800bd848c498f50b430632a5dd36f6bb0f19db93a42",
		"038eef5e9ee6d8b059321c1677241eb177d029a0c634b828f665e4e608e49557",
		"af9f332038049806d2af303f24b8b34434750f36c59f39d5e08fc2da869e8772",
	}
	for i, rate := range []float64{0.8, 2.5} {
		for seed := uint64(1); seed <= 5; seed++ {
			rate, seed := rate, seed
			tests = append(tests, goldenTest{
				name: fmt.Sprintf("sweep-rate%v-seed%d", rate, seed),
				config: quick(func(c *Config) {
					c.Rate, c.Seed, c.Requests = rate, seed, 48
				}),
				sha256: sweep[i*5+int(seed)-1],
			})
		}
	}
	runGoldenTests(t, tests)
}

// TestParallelInvariantOverload runs the overload-with-deadlines
// scenario on a private calibration at one and at eight workers: the
// worker count may change how calibration and dispatch simulations are
// fanned out, never a byte of the report.
func TestParallelInvariantOverload(t *testing.T) {
	var golden []byte
	for _, par := range []int{1, 8} {
		cfg := quickConfig()
		cfg.Rate, cfg.Deadline = 2, 150*sim.Millisecond
		cfg.Parallel = par
		cfg.Artifacts = marvel.NewArtifactCache()
		rep := mustRun(t, cfg)
		checkLedger(t, rep)
		if rep.ShedExpired == 0 {
			t.Fatal("scenario sheds nothing as expired")
		}
		got := marshal(t, rep)
		if golden == nil {
			golden = got
		} else if !bytes.Equal(got, golden) {
			t.Fatalf("parallel=%d diverged from parallel=1:\n got %s\nwant %s", par, got, golden)
		}
	}
}

// TestParallelInvariantUnderFaults calibrates and runs under an armed
// machine-fault plan at one and at eight workers, so the degraded
// service table is built by different fan-outs; the reports must agree
// byte for byte.
func TestParallelInvariantUnderFaults(t *testing.T) {
	var golden []byte
	for _, par := range []int{1, 8} {
		cfg := quickConfig().withDefaults()
		cfg.Faults = fault.Seeded(7, cfg.MachineConfig.NumSPEs)
		cfg.Rate = 2
		cfg.Parallel = par
		cfg.Artifacts = marvel.NewArtifactCache()
		rep := mustRun(t, cfg)
		checkLedger(t, rep)
		if rep.Degraded == 0 {
			t.Fatal("no request was served degraded")
		}
		got := marshal(t, rep)
		if golden == nil {
			golden = got
		} else if !bytes.Equal(got, golden) {
			t.Fatalf("parallel=%d diverged from parallel=1:\n got %s\nwant %s", par, got, golden)
		}
	}
}
