package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"cellport/internal/sim"
)

// goldenArrivals holds the SHA-256 of each TestGoldenArrivals stream,
// keyed by model name and burst.
var goldenArrivals = map[string]string{
	"homogeneous/burst1":  "f868352d0083abf1c70984d4c88962b0acc0a6532d715996d770249f90da0cc2",
	"homogeneous/burst4":  "7ca54b788fb5be6e777593e1d140f230ef721ab4fafc1e2992c3ee9fb5e62d01",
	"fleet/burst1":        "cd59ff0e681d5d7f47cb90388bdd8e54adef2a14fce4f91b73c7ece833c9ec08",
	"fleet/burst4":        "2464bb7b172fc8bb03cffa380f9ed88b622d4f0c46ec27a1f221ad13c9cd74bd",
	"amp0.3/burst1":       "2e979f8182edc27783ca1c7ac87b1b1700e7d9bb1731205a91b7cbea078420fb",
	"amp0.3/burst4":       "28f2e280d274ab125742805b703012e79facd2e389a74c78805be7513c850660",
	"amp1/burst1":         "4b3e91b181e88c879ff92bd31468e3dc6688d81c66947d63f0afbc16c3a9f6b3",
	"amp1/burst4":         "d4291ee783b38d2da717b0e44526cef843931ec9eaff44e99ee6d5a6530900c5",
	"amp1.5/burst1":       "0db347556106e92a1d6b4b0df76b44c8feb2af144784d76cc9101423ac118219",
	"amp1.5/burst4":       "2091c5bd9f159efb045c832998ef2ee78d1b90d187d9c33b8f041cd4762e7c71",
	"flash-only/burst1":   "6bc069f3d7a50cad2ce62b5cc94e1269df883f357e6d74222ec3dcb7d967a1ce",
	"flash-only/burst4":   "39f4b1d8031a574745728cdf589390d6103f01b9c188e8a98a4df74759803701",
	"short-period/burst1": "9c99613062519368631f74d0d0f4a2cfca1d7b31afb5c06cf9e4297be70e675d",
	"short-period/burst4": "13a0fdb25a2baded0a577f0013447119b7c2d0d6a408a76ad9820f05a8d802cc",
}

// goldenModels are the rate models TestGoldenArrivals pins, by name.
var goldenModels = []struct {
	name  string
	model *RateModel
}{
	{"homogeneous", nil},
	{"fleet", &RateModel{DiurnalAmp: 0.6, FlashCount: 2, FlashFactor: 3}},
	{"amp0.3", &RateModel{DiurnalAmp: 0.3}},
	{"amp1", &RateModel{DiurnalAmp: 1}},
	{"amp1.5", &RateModel{DiurnalAmp: 1.5}},
	{"flash-only", &RateModel{FlashCount: 3, FlashFactor: 4}},
	{"short-period", &RateModel{DiurnalAmp: 0.6, FlashCount: 2, FlashFactor: 3, Period: 50 * sim.Millisecond}},
}

// arrivalsDigest digests, for seeds 0–39, every field of every request
// of a 5000-request stream at 1000 requests per virtual second, a
// quarter of them tall, with a 2 ms deadline.
func arrivalsDigest(t *testing.T, m *RateModel, burst float64) string {
	t.Helper()
	const (
		seeds    = 40
		requests = 5000
		rate     = 1000
		tallFrac = 0.25
		deadline = 2 * sim.Millisecond
	)
	h := sha256.New()
	var rec [33]byte
	for seed := uint64(0); seed < seeds; seed++ {
		reqs := arrivalSlice(seed, requests, rate, burst, tallFrac, deadline, m)
		checkStream(t, reqs, requests)
		if m != nil && m.Period > 0 && reqs[requests-1].Arrival < sim.Time(50*m.Period) {
			t.Fatalf("seed %d: stream ends at %v, inside 50 periods of %v", seed, reqs[requests-1].Arrival, m.Period)
		}
		for _, r := range reqs {
			binary.LittleEndian.PutUint64(rec[0:], uint64(r.ID))
			binary.LittleEndian.PutUint64(rec[8:], uint64(r.Arrival))
			binary.LittleEndian.PutUint64(rec[16:], uint64(r.Deadline))
			binary.LittleEndian.PutUint64(rec[24:], uint64(r.Attempts))
			rec[32] = 0
			if r.Tall {
				rec[32] = 1
			}
			h.Write(rec[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenArrivals pins the arrival streams by SHA-256 (see
// arrivalsDigest). The grid covers the homogeneous stream (nil model),
// the fleet shape (diurnal amplitude 0.6 with two 3× flashes), a
// shallow, a full and an over-unity amplitude (the trough clamp), flash
// crowds without a diurnal term, and a short period that wraps the
// stream over about a hundred days, each at burst 1 and 4. Any change to
// thinning, burst sizing or the draw order moves a digest.
func TestGoldenArrivals(t *testing.T) {
	for _, m := range goldenModels {
		for _, burst := range []float64{1, 4} {
			name := fmt.Sprintf("%s/burst%v", m.name, burst)
			t.Run(name, func(t *testing.T) {
				if got := arrivalsDigest(t, m.model, burst); got != goldenArrivals[name] {
					t.Errorf("stream digest %s, want %s", got, goldenArrivals[name])
				}
			})
		}
	}
}
