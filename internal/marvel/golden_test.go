package marvel

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"cellport/internal/cell"
	"cellport/internal/fault"
	"cellport/internal/trace"
)

// goldenPorted pins one simulated run three ways: the SHA-256 of its JSON
// result, its dispatched-event count (zero for runs that do not report
// one) and the SHA-256 of its recorded trace, which the JSON omits. Any
// change to a schedule's call order, a kernel's charges or its outputs
// moves at least one of them. must, when set, asserts the run still
// reaches the paths it is in the table for.
type goldenPorted struct {
	name   string
	run    func(t *testing.T, mcfg *cell.Config) (result any, events uint64)
	must   func(t *testing.T, result any)
	sha256 string
	events uint64
	trace  string
}

// spanDigest hashes every recorded span (lane, endpoints, kind, label)
// and instant (lane, time, label) in recording order.
func spanDigest(rec *trace.Recorder) string {
	h := sha256.New()
	for _, sp := range rec.Spans() {
		fmt.Fprintf(h, "S %s %d %d %c %s\n", sp.Lane, int64(sp.Start), int64(sp.End), sp.Kind, sp.Label)
	}
	for _, in := range rec.Instants() {
		fmt.Fprintf(h, "I %s %d %s\n", in.Lane, int64(in.At), in.Label)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runGoldenPorted(t *testing.T, tests []goldenPorted) {
	t.Helper()
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, *testMachineConfig()) })
	}
}

// check runs tc traced on a machine configured as mcfg and compares the
// run with its pinned digests.
func (tc goldenPorted) check(t *testing.T, mcfg cell.Config) {
	t.Helper()
	rec := trace.NewRecorder()
	mcfg.Tracer = rec
	res, events := tc.run(t, &mcfg)
	if tc.must != nil {
		tc.must(t, res)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
		t.Errorf("result digest %s, want %s:\n%s", got, tc.sha256, js)
	}
	if events != tc.events {
		t.Errorf("EventCount %d, want %d", events, tc.events)
	}
	if got := spanDigest(rec); got != tc.trace {
		t.Errorf("trace digest %s, want %s", got, tc.trace)
	}
}

// ported runs RunPorted with validation on, failing the test on any error
// or mismatch.
func ported(arts *ArtifactCache, cfg PortedConfig) func(t *testing.T, mcfg *cell.Config) (any, uint64) {
	return func(t *testing.T, mcfg *cell.Config) (any, uint64) {
		cfg.Workload = testWorkload(2)
		cfg.Validate = true
		cfg.MachineConfig = mcfg
		cfg.Artifacts = arts
		res, err := RunPorted(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ValidationErrors != 0 {
			t.Fatalf("%d validation errors", res.ValidationErrors)
		}
		return res, res.EventCount
	}
}

// TestGoldenPorted pins every scenario of the simulated port in both
// kernel variants, one fault-armed run, and data-parallel extraction of
// each kernel on one and four SPEs. The digests were taken before the
// per-kernel switches became one kernel table and the per-scenario
// drivers one schedule loop, so they prove both refactors preserved every
// simulated call, charge and output.
func TestGoldenPorted(t *testing.T) {
	runGoldenPorted(t, goldenPortedCases(NewArtifactCache()))
}

// goldenPortedCases lists TestGoldenPorted's runs, all on arts.
func goldenPortedCases(arts *ArtifactCache) []goldenPorted {
	run := func(sc Scenario, v Variant) func(t *testing.T, mcfg *cell.Config) (any, uint64) {
		return ported(arts, PortedConfig{Scenario: sc, Variant: v})
	}
	tests := []goldenPorted{
		{name: "single-spe/naive", run: run(SingleSPE, Naive), events: 983,
			sha256: "38e25166e8ce25d9dad150f0a83939fa6dde0e38d15593db19996049b4ea52cd",
			trace:  "65cbdd4c68d216074df52245e21f49a7a5ebf99e048b7ed4128adb9d830eba24"},
		{name: "single-spe/optimized", run: run(SingleSPE, Optimized), events: 785,
			sha256: "e33d19f5dc166cf92d5a52fc75f9ec9b079819b377576aebc336675c404ff5f2",
			trace:  "85b48a07fcefd15438a0730c7d765f8244adff2f0513dce4425f633d9283daeb"},
		{name: "multi-spe/naive", run: run(MultiSPE, Naive), events: 983,
			sha256: "022023ee868587b99c917b4291e246f6ab9f414f1cb64dd17fbb1e6256833f5d",
			trace:  "6d4be0e5bf489e94064603ad75b18a3a0fe224a0b2796543f7e9f8d9c545cbc0"},
		{name: "multi-spe/optimized", run: run(MultiSPE, Optimized), events: 785,
			sha256: "0aaf9c8d3fb4061483a193e2651f7e2caa818eae5a93650a73cfe5ff439fa76c",
			trace:  "6a2a97889c45e620fa0bf1a66c798aba4cd96471ba55ca56bcf92040f17af559"},
		{name: "multi-spe2/naive", run: run(MultiSPE2, Naive), events: 983,
			sha256: "17c64bb64f89d731ffe4947c754cc9812eb15dc56799e287bb30d4ad9e3a8c04",
			trace:  "4433f39fc992140e9b73a07ac7ab6dd4145139c8dd8acb6433a6b3425f002dc7"},
		{name: "multi-spe2/optimized", run: run(MultiSPE2, Optimized), events: 785,
			sha256: "b4acb5fb58f88129a6cee360af1540ca66fdd270196b1d8cedb627ac0a9bcb08",
			trace:  "3675a2c627750fb827e4bd2c732077f6860573bf87c6fce72681ee48a53a9add"},
		{name: "pipelined/naive", run: run(Pipelined, Naive), events: 981,
			sha256: "15f959c2d63e6761b8dbeb1e544bdeee13f098d83d1ac86bed3b523f9f47098d",
			trace:  "64a488f285c9a574e83552e0f17a9e90911b2043eae804c4fe55de67cbc09407"},
		{name: "pipelined/optimized", run: run(Pipelined, Optimized), events: 779,
			sha256: "63337d93708e80057ad1a4a3cb4d9bcc4748c937202d065ee1f0ddf033529b99",
			trace:  "cc93921edf0a1b30c9ffc4ee88060dab556e9a4924e73936f13e46be11d1aabf"},
		{name: "multi-spe2/faults-seed7", events: 659,
			run: func(t *testing.T, mcfg *cell.Config) (any, uint64) {
				return ported(arts, PortedConfig{
					Scenario: MultiSPE2,
					Variant:  Optimized,
					Faults:   fault.Seeded(7, mcfg.NumSPEs),
				})(t, mcfg)
			},
			must: func(t *testing.T, res any) {
				if rep := res.(*PortedResult).Faults; rep == nil || len(rep.Injected) == 0 {
					t.Fatalf("fault report %+v: the seeded plan injected nothing", rep)
				}
			},
			sha256: "3d102f8049f10281a09720a667e8d5e3ab6da6b201bf861103db19afb7621fd6",
			trace:  "bfcb22b97edb2c2f010f72176b4e56fb076274e1b240f05839360ed4fa1c4dd7"},
	}

	// Data-parallel extraction reports no event count.
	dataParallel := []struct {
		id            KernelID
		spes          int
		sha256, trace string
	}{
		{KCH, 1, "5441117e801a50763b41f14ae5b906bc75830a0294380084ee51155049f98ee2",
			"93513c7e7e057fc3459fac09ebe998fcb143b7e00462b06e8a65362df5490e0b"},
		{KCH, 4, "0a4608ecffe1b60053b60c01a551d9e103b6feefb91a9e5e11a9b9707f77469e",
			"beb64fa7ae6393d170ee513610ddf307fc0d79b1863d208557459c3852b2003e"},
		{KCC, 1, "e0aaff8a329611b1104607cbdead1626c05932824472e75df1b6c5958dea3f97",
			"0c662e75dfd5ce423987c386fce249f46a4213a90c29c61560f68e37354c7d31"},
		{KCC, 4, "9ba57afe916333bae0b373a1141bd90d539507ea63fdf0dbf5f0bc14a505a050",
			"13fcdd8bdbc3ae548fa18a3b2fc8b4fa3c432fd1b44545e50b76d5240fe9f71b"},
		{KTX, 1, "9d471bde9522ff6e307ee2bd26bb6da208417ff86a0dc74e695dd0732c3f9b6a",
			"ad8b53375fd4ea225fff18b0dede82a9f3a4439ce4e9a6f92fb4dfb213c70f63"},
		{KTX, 4, "00365b982d34a710e29b3916db4e0012e1a8eb26c6962dcf6aa43aa5a4cf577b",
			"e8d4f805027a4aa9447b2648e7272e9cfa5057dfb644f242975a781c0d60ee66"},
		{KEH, 1, "e39835fc19beddbef9e6e4f091801b0fca446d88fb5e987bba0a5b36858e8c54",
			"246150127259b381a27342648eabcec5ada68c7a2bc5761710c2ea4d722efa41"},
		{KEH, 4, "abae15b92415cd0324f68dfd65c6e7a1f6cb59b086317a01b8b077859c7fe549",
			"a45762ecb3b5ee62afbc24b7b51e1f8db80b914d6f4cc28f1197228301f51790"},
	}
	for _, dp := range dataParallel {
		dp := dp
		tests = append(tests, goldenPorted{
			name: fmt.Sprintf("data-parallel/%s/spes=%d", dp.id, dp.spes),
			run: func(t *testing.T, mcfg *cell.Config) (any, uint64) {
				res, err := RunDataParallelExtraction(dp.id, dp.spes, testWorkload(1), Optimized, mcfg, arts)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Matches {
					t.Fatal("merged feature differs from the whole-image reference")
				}
				return res, 0
			},
			sha256: dp.sha256,
			trace:  dp.trace,
		})
	}
	return tests
}
