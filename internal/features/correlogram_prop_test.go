package features

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cellport/internal/img"
)

// accumulateCorrelogramReference is the original O(CorrWindow²)-per-pixel
// full-window rescan, kept verbatim as the oracle for the sliding-window
// implementation.
func accumulateCorrelogramReference(a *CorrAcc, band *img.RGB, py0, py1 int) {
	w, h := band.W, band.H
	bins := make([]int32, w*h)
	img.QuantizeRows(band, 0, h, bins)
	for y := py0; y < py1; y++ {
		yLo, yHi := y-CorrRadius, y+CorrRadius
		if yLo < 0 {
			yLo = 0
		}
		if yHi > h-1 {
			yHi = h - 1
		}
		for x := 0; x < w; x++ {
			c := bins[y*w+x]
			xLo, xHi := x-CorrRadius, x+CorrRadius
			if xLo < 0 {
				xLo = 0
			}
			if xHi > w-1 {
				xHi = w - 1
			}
			same := uint64(0)
			for wy := yLo; wy <= yHi; wy++ {
				row := bins[wy*w:]
				for wx := xLo; wx <= xHi; wx++ {
					if row[wx] == c {
						same++
					}
				}
			}
			a.Same[c] += same - 1
			a.Total[c] += uint64((yHi-yLo+1)*(xHi-xLo+1) - 1)
		}
	}
}

// rows returns a zero-copy view of rows [y0, y1) of im.
func rows(im *img.RGB, y0, y1 int) *img.RGB {
	return img.Wrap(im.Pix[y0*im.Stride:y1*im.Stride], im.W, y1-y0, im.Stride)
}

// haloBands splits image rows [0, h) at the given interior cut points
// and returns each payload as a band carrying up to CorrRadius halo rows
// per side (clamped at the image bounds), with its payload range inside
// the band — the way the SPE kernels see a frame.
func haloBands(im *img.RGB, cuts []int) (bands []*img.RGB, payloads [][2]int) {
	edges := append(append([]int{0}, cuts...), im.H)
	for i := 0; i+1 < len(edges); i++ {
		y0, y1 := edges[i], edges[i+1]
		top, bot := max(y0-CorrRadius, 0), min(y1+CorrRadius, im.H)
		bands = append(bands, rows(im, top, bot))
		payloads = append(payloads, [2]int{y0 - top, y1 - top})
	}
	return bands, payloads
}

// checkCorrelogram requires the optimized accumulator to equal the
// reference both whole-image and over the halo'd bands cut at cuts.
func checkCorrelogram(t *testing.T, name string, im *img.RGB, cuts []int) {
	t.Helper()
	var ref, opt CorrAcc
	accumulateCorrelogramReference(&ref, im, 0, im.H)
	opt.AccumulateCorrelogram(im, 0, im.H)
	if ref != opt {
		t.Fatalf("%s (%dx%d): whole-image accumulator diverges from reference", name, im.W, im.H)
	}
	if len(cuts) == 0 {
		return
	}
	var bandedRef, banded CorrAcc
	bands, payloads := haloBands(im, cuts)
	for i, band := range bands {
		p := payloads[i]
		accumulateCorrelogramReference(&bandedRef, band, p[0], p[1])
		banded.AccumulateCorrelogram(band, p[0], p[1])
	}
	if banded != bandedRef {
		t.Fatalf("%s (%dx%d cuts %v): banded accumulator diverges from banded reference",
			name, im.W, im.H, cuts)
	}
}

// randomCuts picks n distinct interior cut points of [0, h), sorted; it
// returns fewer when h is too short to hold n.
func randomCuts(rng *rand.Rand, h, n int) []int {
	if n > h-1 {
		n = h - 1
	}
	cuts := make([]int, 0, n)
	for _, c := range rng.Perm(h - 1)[:n] {
		cuts = append(cuts, c+1)
	}
	sort.Ints(cuts)
	return cuts
}

// paint fills im with color(x, y), one of a small palette of RGB values
// that quantize to distinct bins.
func paint(im *img.RGB, color func(x, y int) int) *img.RGB {
	palette := [][3]byte{{200, 30, 30}, {30, 200, 30}, {30, 30, 200}, {220, 220, 220}}
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			p := palette[color(x, y)%len(palette)]
			im.Set(x, y, p[0], p[1], p[2])
		}
	}
	return im
}

// TestCorrelogramSlidingWindowMatchesReference is the bit-exactness
// property: the column-census accumulator produces exactly the reference
// Same and Total arrays, both whole-image and split into halo'd bands.
// Inputs cover random seeded images (including degenerate widths and
// heights smaller than the window, where every band is boundary-clamped),
// run-heavy geometries that drive the run-sliding path against the band
// edges (uniform frames, vertical and horizontal stripes, frames no wider
// than CorrRadius+1), splits into three or more bands down to single-row
// payloads, and empty payloads.
func TestCorrelogramSlidingWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20070710))
	for trial := 0; trial < 40; trial++ {
		// Bias toward window-sized edge cases: dims in [1, 3*CorrWindow).
		w := 1 + rng.Intn(3*CorrWindow-1)
		h := 1 + rng.Intn(3*CorrWindow-1)
		var im *img.RGB
		if trial < 4 { // a few full-width frames like the real workload
			w, h = 352, 24+rng.Intn(40)
			im = img.Synthesize(rng.Uint64(), w, h)
		} else { // uniform-random pixels exercise every color bin
			im = img.New(w, h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					im.Set(x, y, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
				}
			}
		}
		name := fmt.Sprintf("random trial %d", trial)
		checkCorrelogram(t, name, im, randomCuts(rng, h, 1))
		checkCorrelogram(t, name, im, randomCuts(rng, h, 2+rng.Intn(4)))
	}

	for _, dim := range [][2]int{{1, 1}, {1, 40}, {40, 1}, {CorrWindow, CorrWindow}, {60, 45}} {
		w, h := dim[0], dim[1]
		im := paint(img.New(w, h), func(x, y int) int { return 0 })
		checkCorrelogram(t, "uniform", im, randomCuts(rng, h, 3))
	}

	for k := 1; k <= 2*CorrWindow; k++ {
		w, h := 3*CorrWindow+k, 2*CorrWindow+1
		vert := paint(img.New(w, h), func(x, y int) int { return x / k })
		checkCorrelogram(t, fmt.Sprintf("vertical stripes %d", k), vert, randomCuts(rng, h, 3))
		horiz := paint(img.New(w, h), func(x, y int) int { return y / k })
		checkCorrelogram(t, fmt.Sprintf("horizontal stripes %d", k), horiz, randomCuts(rng, h, 3))
	}

	for w := 1; w <= CorrRadius+1; w++ {
		h := 1 + rng.Intn(3*CorrWindow)
		narrow := paint(img.New(w, h), func(x, y int) int { return (x + y/3) / 2 })
		checkCorrelogram(t, fmt.Sprintf("narrow %d", w), narrow, randomCuts(rng, h, 2))
	}

	// Every payload a single row: as many bands as rows.
	im := img.Synthesize(7, 45, 2*CorrWindow)
	cuts := make([]int, 0, im.H-1)
	for y := 1; y < im.H; y++ {
		cuts = append(cuts, y)
	}
	checkCorrelogram(t, "single-row payloads", im, cuts)

	// An empty payload (py0 == py1) leaves the accumulator unchanged.
	var acc CorrAcc
	acc.AccumulateCorrelogram(im, 0, 10)
	want := acc
	for _, y := range []int{0, 5, im.H} {
		acc.AccumulateCorrelogram(im, y, y)
		if acc != want {
			t.Fatalf("empty payload at row %d changed the accumulator", y)
		}
	}
}

// TestCorrelogramConcurrentMatchesSequential runs the accumulator from
// eight goroutines over frames of different sizes, each goroutine walking
// them in a different order so the pooled scratch changes size between
// calls, and requires every result to equal the sequential one.
func TestCorrelogramConcurrentMatchesSequential(t *testing.T) {
	type job struct {
		band     *img.RGB
		py0, py1 int
	}
	big := img.Synthesize(21, 352, 480)
	var jobs []job
	jobs = append(jobs, job{img.Synthesize(20, 352, 240), 0, 240}, job{big, 0, 480})
	bands, payloads := haloBands(img.Synthesize(22, 40, 50), []int{1, 13, 14, 30})
	for i, band := range bands {
		jobs = append(jobs, job{band, payloads[i][0], payloads[i][1]})
	}
	jobs = append(jobs, job{rows(big, 100, 120), CorrRadius, 20 - CorrRadius})

	want := make([]CorrAcc, len(jobs))
	for i, j := range jobs {
		want[i].AccumulateCorrelogram(j.band, j.py0, j.py1)
	}
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < len(jobs); n++ {
				i := (g*3 + n) % len(jobs)
				var got CorrAcc
				got.AccumulateCorrelogram(jobs[i].band, jobs[i].py0, jobs[i].py1)
				if got != want[i] {
					errs <- fmt.Errorf("goroutine %d: job %d (%dx%d rows [%d,%d)) diverges from sequential",
						g, i, jobs[i].band.W, jobs[i].band.H, jobs[i].py0, jobs[i].py1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func BenchmarkCorrelogramSlidingWindow(b *testing.B) {
	im := img.Synthesize(13, 352, 240)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc CorrAcc
		acc.AccumulateCorrelogram(im, 0, im.H)
	}
}

func BenchmarkCorrelogramReference(b *testing.B) {
	im := img.Synthesize(13, 352, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc CorrAcc
		accumulateCorrelogramReference(&acc, im, 0, im.H)
	}
}
