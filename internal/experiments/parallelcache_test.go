package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"cellport/internal/marvel"
)

// TestParallelSharedCacheDeterminism pins satellite coverage for the
// worker pool × artifact cache interaction: HostsExp and ProfileExp
// driven through a shared ArtifactCache must produce byte-identical
// results at Parallel=1 and Parallel=8, and — because cache hits and
// misses are counted at lookup admission under singleflight — the
// hit/miss totals must be identical too, no matter how the worker
// goroutines interleave.
func TestParallelSharedCacheDeterminism(t *testing.T) {
	type expCase struct {
		name string
		run  func(cfg Config) (any, error)
	}
	cases := []expCase{
		{"hosts", func(cfg Config) (any, error) { return HostsExp(cfg) }},
		{"profile", func(cfg Config) (any, error) { return ProfileExp(cfg) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				doc          []byte
				hits, misses uint64
			}
			measure := func(parallel int) outcome {
				t.Helper()
				cache := marvel.NewArtifactCache()
				cfg := DefaultConfig()
				cfg.Quick, cfg.Parallel, cfg.Artifacts = true, parallel, cache
				res, err := tc.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				doc, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				h, m := cache.Stats()
				return outcome{doc: doc, hits: h, misses: m}
			}
			seq := measure(1)
			// Several parallel repetitions: scheduling varies between runs,
			// the observable outcome must not.
			for rep := 0; rep < 3; rep++ {
				par := measure(8)
				if !bytes.Equal(par.doc, seq.doc) {
					t.Fatalf("parallel result diverged from sequential:\n par %s\n seq %s", par.doc, seq.doc)
				}
				if par.hits != seq.hits || par.misses != seq.misses {
					t.Fatalf("cache stats diverged: parallel %d/%d, sequential %d/%d",
						par.hits, par.misses, seq.hits, seq.misses)
				}
			}
			if seq.misses == 0 {
				t.Fatal("experiment never touched the artifact cache; the comparison is vacuous")
			}
		})
	}
}
