package features

import (
	"math/rand"
	"testing"

	"cellport/internal/img"
)

// Reference implementations of the remaining feature kernels, kept
// verbatim as oracles for the bounds-check-hoisted versions (the same
// pattern as accumulateCorrelogramReference).

// accumulateHistogramReference is the original per-pixel indexed scan.
func accumulateHistogramReference(a *HistAcc, im *img.RGB, y0, y1 int) {
	for y := y0; y < y1; y++ {
		row := im.Pix[y*im.Stride:]
		for x := 0; x < im.W; x++ {
			bin := img.QuantizeHSV166(row[3*x], row[3*x+1], row[3*x+2])
			a.Counts[bin]++
		}
		a.Pixels += uint64(im.W)
	}
}

// accumulateEdgeReference is the original uniformly clamped Sobel scan.
func accumulateEdgeReference(a *EdgeAcc, band *img.RGB, py0, py1 int) {
	w, h := band.W, band.H
	gray := band.Gray(nil)
	at := func(x, y int) int {
		if x < 0 {
			x = 0
		}
		if x > w-1 {
			x = w - 1
		}
		if y < 0 {
			y = 0
		}
		if y > h-1 {
			y = h - 1
		}
		return int(gray[y*w+x])
	}
	for y := py0; y < py1; y++ {
		for x := 0; x < w; x++ {
			gx := -at(x-1, y-1) + at(x+1, y-1) +
				-2*at(x-1, y) + 2*at(x+1, y) +
				-at(x-1, y+1) + at(x+1, y+1)
			gy := -at(x-1, y-1) - 2*at(x, y-1) - at(x+1, y-1) +
				at(x-1, y+1) + 2*at(x, y+1) + at(x+1, y+1)
			a.Counts[edgeBin(gx, gy)]++
		}
	}
}

// haarTileReference is the original column-major in-place decomposition.
func haarTileReference(a *TexAcc, t *[TexTile][TexTile]int32) {
	size := TexTile
	var tmp [TexTile]int32
	for level := 0; level < texLevels; level++ {
		half := size / 2
		for y := 0; y < size; y++ {
			for x := 0; x < half; x++ {
				p, q := t[y][2*x], t[y][2*x+1]
				tmp[x] = (p + q) >> 1
				tmp[half+x] = p - q
			}
			copy(t[y][:size], tmp[:size])
		}
		for x := 0; x < size; x++ {
			for y := 0; y < half; y++ {
				p, q := t[2*y][x], t[2*y+1][x]
				tmp[y] = (p + q) >> 1
				tmp[half+y] = p - q
			}
			for y := 0; y < size; y++ {
				t[y][x] = tmp[y]
			}
		}
		var hl, lh, hh uint64
		for y := 0; y < half; y++ {
			for x := half; x < size; x++ {
				hl += absU(t[y][x])
			}
		}
		for y := half; y < size; y++ {
			for x := 0; x < half; x++ {
				lh += absU(t[y][x])
			}
			for x := half; x < size; x++ {
				hh += absU(t[y][x])
			}
		}
		a.Energy[level*3+0] += hl
		a.Energy[level*3+1] += lh
		a.Energy[level*3+2] += hh
		size = half
	}
	var ll uint64
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			ll += absU(t[y][x])
		}
	}
	a.Energy[9] += ll
}

// accumulateTextureReference is the original tile loop (clamped per-pixel
// load + column-major Haar).
func accumulateTextureReference(a *TexAcc, band *img.RGB, py0, py1 int) {
	w := band.W
	gray := band.Gray(nil)
	var tile [TexTile][TexTile]int32
	for ty := py0; ty < py1; ty += TexTile {
		for tx := 0; tx < w; tx += TexTile {
			for y := 0; y < TexTile; y++ {
				sy := ty + y
				if sy > py1-1 {
					sy = py1 - 1
				}
				row := gray[sy*w:]
				for x := 0; x < TexTile; x++ {
					sx := tx + x
					if sx > w-1 {
						sx = w - 1
					}
					tile[y][x] = int32(row[sx])
				}
			}
			haarTileReference(a, &tile)
			a.Pixels += TexTile * TexTile
		}
	}
}

// randomTrials is the number of randomImage frames each kernel property
// test checks.
const randomTrials = 50

// randomImage builds a synthesized full-width frame (trials 0..3), a run
// frame (trials 4..13) or a uniform-random image, with dimensions biased
// toward kernel-geometry edge cases (single-pixel rows/columns, sub-window,
// sub-tile sizes).
func randomImage(rng *rand.Rand, trial int) *img.RGB {
	if trial < 4 {
		return img.Synthesize(rng.Uint64(), 352, 24+rng.Intn(40))
	}
	w := 1 + rng.Intn(3*TexTile-1)
	h := 1 + rng.Intn(3*TexTile-1)
	if trial < 14 {
		if trial < 6 {
			w = 1
		}
		return runImage(rng, w, h)
	}
	im := img.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
	}
	return im
}

// runImage builds a w×h frame of color runs laid in scan order, so runs
// cross row ends, as run reuse in the quantizer sees them. The first run
// is black, which a zero-initialised "previous pixel" would count in bin 0
// instead of 162, and the palette holds colors that differ from black in
// one channel only.
func runImage(rng *rand.Rand, w, h int) *img.RGB {
	palette := [][3]byte{{0, 0, 0}, {255, 0, 0}, {0, 255, 0}, {0, 0, 255}}
	for len(palette) < 6 {
		palette = append(palette, [3]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	im := img.New(w, h)
	// The first runs step from black to each one-channel color and back.
	steps := []int{0, 1, 0, 2, 0, 3, 0}
	c, left := palette[0], 1+rng.Intn(2*w)
	for i, run := 0, 1; i < w*h; i++ {
		if left == 0 {
			k := rng.Intn(len(palette))
			if run < len(steps) {
				k = steps[run]
			}
			c, left = palette[k], 1+rng.Intn(2*w)
			run++
		}
		im.Set(i%w, i/w, c[0], c[1], c[2])
		left--
	}
	return im
}

// TestHistogramMatchesReference: the hoisted-row, run-reusing histogram
// is bit-exact against the original per-pixel scan, whole-image, over a
// sub-range starting at y0 > 0, and split into arbitrary bands (pointwise
// kernel: no halo, any split works).
func TestHistogramMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < randomTrials; trial++ {
		im := randomImage(rng, trial)
		var ref, opt HistAcc
		accumulateHistogramReference(&ref, im, 0, im.H)
		opt.AccumulateHistogram(im, 0, im.H)
		if ref != opt {
			t.Fatalf("trial %d (%dx%d): histogram diverges from reference", trial, im.W, im.H)
		}
		if im.H >= 2 {
			split := 1 + rng.Intn(im.H-1)
			var tailRef, tail HistAcc
			accumulateHistogramReference(&tailRef, im, split, im.H)
			tail.AccumulateHistogram(im, split, im.H)
			if tail != tailRef {
				t.Fatalf("trial %d (%dx%d rows [%d,%d)): histogram diverges from reference", trial, im.W, im.H, split, im.H)
			}
			var banded HistAcc
			banded.AccumulateHistogram(im, 0, split)
			banded.AccumulateHistogram(im, split, im.H)
			if banded != ref {
				t.Fatalf("trial %d (%dx%d split %d): banded histogram diverges", trial, im.W, im.H, split)
			}
		}
	}
}

// TestEdgeMatchesReference: the interior-fast-path Sobel scan is bit-exact
// against the uniformly clamped scan, whole-image and in halo'd bands.
func TestEdgeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < randomTrials; trial++ {
		im := randomImage(rng, trial)
		w, h := im.W, im.H
		var ref, opt EdgeAcc
		accumulateEdgeReference(&ref, im, 0, h)
		opt.AccumulateEdge(im, 0, h)
		if ref != opt {
			t.Fatalf("trial %d (%dx%d): edge histogram diverges from reference", trial, w, h)
		}
		// Banded with EdgeRadius halos, as the SPE kernels run it.
		if h >= 2 {
			split := 1 + rng.Intn(h-1)
			var banded, bandedRef EdgeAcc
			for _, b := range [][2]int{{0, split}, {split, h}} {
				y0, y1 := b[0], b[1]
				haloTop := EdgeRadius
				if y0-haloTop < 0 {
					haloTop = y0
				}
				haloBot := EdgeRadius
				if y1+haloBot > h {
					haloBot = h - y1
				}
				band := rows(im, y0-haloTop, y1+haloBot)
				banded.AccumulateEdge(band, haloTop, haloTop+(y1-y0))
				accumulateEdgeReference(&bandedRef, band, haloTop, haloTop+(y1-y0))
			}
			if banded != bandedRef {
				t.Fatalf("trial %d (%dx%d split %d): banded edge diverges from banded reference",
					trial, w, h, split)
			}
		}
	}
}

// TestTextureMatchesReference: the row-major Haar and hoisted tile load
// are bit-exact against the column-major original, whole-image and split
// at tile-aligned rows.
func TestTextureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < randomTrials; trial++ {
		im := randomImage(rng, trial)
		var ref, opt TexAcc
		accumulateTextureReference(&ref, im, 0, im.H)
		opt.AccumulateTexture(im, 0, im.H)
		if ref != opt {
			t.Fatalf("trial %d (%dx%d): texture diverges from reference", trial, im.W, im.H)
		}
		// Tile-aligned banding (the PlanSlices granularity contract).
		if im.H > TexTile {
			split := TexTile * (1 + rng.Intn((im.H-1)/TexTile))
			var banded TexAcc
			for _, b := range [][2]int{{0, split}, {split, im.H}} {
				band := rows(im, b[0], b[1])
				banded.AccumulateTexture(band, 0, band.H)
			}
			if banded != ref {
				t.Fatalf("trial %d (%dx%d split %d): banded texture diverges", trial, im.W, im.H, split)
			}
		}
	}
}

func BenchmarkHistogram(b *testing.B) {
	im := img.Synthesize(13, 352, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc HistAcc
		acc.AccumulateHistogram(im, 0, im.H)
	}
}

func BenchmarkHistogramReference(b *testing.B) {
	im := img.Synthesize(13, 352, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc HistAcc
		accumulateHistogramReference(&acc, im, 0, im.H)
	}
}

func BenchmarkEdge(b *testing.B) {
	im := img.Synthesize(13, 352, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc EdgeAcc
		acc.AccumulateEdge(im, 0, im.H)
	}
}

func BenchmarkEdgeReference(b *testing.B) {
	im := img.Synthesize(13, 352, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc EdgeAcc
		accumulateEdgeReference(&acc, im, 0, im.H)
	}
}

func BenchmarkTexture(b *testing.B) {
	im := img.Synthesize(13, 352, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc TexAcc
		acc.AccumulateTexture(im, 0, im.H)
	}
}

func BenchmarkTextureReference(b *testing.B) {
	im := img.Synthesize(13, 352, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc TexAcc
		accumulateTextureReference(&acc, im, 0, im.H)
	}
}
