package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGoldenMetrics pins the metrics artifact byte for byte: the SHA-256
// of WriteMetricsJSON for the configurations `paperbench -quick -exp fig7
// -metrics F`, `-exp faults -faultseed 7` and `-exp serve` build. Every
// per-SPE time split, MFC histogram, EIB share, supervisor counter and
// per-blade counter lands in these files, so a change to how a component
// harvests its counters shows here first.
func TestGoldenMetrics(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Config) error
		seed uint64 // FaultSeed
		want string
	}{
		{"fig7", func(c Config) error { _, err := Fig7(c); return err }, 0,
			"24e13bdf0f29c39036c134bbae35db828a4bcc10abed3a85bb8e4e2e8d439d3d"},
		{"faults", func(c Config) error { _, err := FaultsExp(c); return err }, 7,
			"795545d9373f617c41c478c0c32ea8cbec63b32061a9464141b9a02766c9d22b"},
		{"serve", func(c Config) error { _, err := ServeExp(c); return err }, 0,
			"6def9d9097369d232f0eb3aab094a16451778cba882c77bb268e316a921ba9fc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Quick, cfg.FaultSeed, cfg.Collect = true, tc.seed, &Collector{}
			if err := tc.run(cfg); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := cfg.Collect.WriteMetricsJSON(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("metrics digest %s, want %s", got, tc.want)
			}
		})
	}
}
