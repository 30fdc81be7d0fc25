package img

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestStrideAlignment(t *testing.T) {
	for _, w := range []int{1, 5, 16, 352, 1600} {
		s := StrideFor(w)
		if s%16 != 0 || s < 3*w {
			t.Errorf("StrideFor(%d) = %d", w, s)
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	im := New(7, 5)
	im.Set(6, 4, 1, 2, 3)
	r, g, b := im.At(6, 4)
	if r != 1 || g != 2 || b != 3 {
		t.Fatalf("At = %d,%d,%d", r, g, b)
	}
}

func TestWrapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short buffer should panic")
		}
	}()
	Wrap(make([]byte, 10), 4, 4, StrideFor(4))
}

// TestGrayMatchesGrayAt checks Gray against the per-pixel BT.601 luma
// formula, and that a plane large enough is reused.
func TestGrayMatchesGrayAt(t *testing.T) {
	im := Synthesize(3, 33, 17)
	// A short, dirty destination must be grown and fully overwritten.
	g := im.Gray([]byte{0xFF, 0xFF})
	if len(g) != im.W*im.H {
		t.Fatalf("gray plane holds %d bytes, want %d", len(g), im.W*im.H)
	}
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, gg, b := im.At(x, y)
			want := byte((77*int(r) + 150*int(gg) + 29*int(b)) >> 8)
			if g[y*im.W+x] != want {
				t.Fatalf("gray mismatch at %d,%d: %d, want %d", x, y, g[y*im.W+x], want)
			}
		}
	}
	// Reusing the plane for a smaller image converts in place.
	small := Synthesize(4, 8, 8)
	if g2 := small.Gray(g); &g2[0] != &g[0] || len(g2) != 64 {
		t.Fatal("a large enough plane was not reused")
	}
}

func TestHSVKnownColors(t *testing.T) {
	cases := []struct {
		r, g, b byte
		h       int
		s, v    byte
	}{
		{255, 0, 0, 0, 255, 255},
		{0, 255, 0, 120, 255, 255},
		{0, 0, 255, 240, 255, 255},
		{0, 0, 0, 0, 0, 0},
		{255, 255, 255, 0, 0, 255},
		{128, 128, 128, 0, 0, 128},
	}
	for _, c := range cases {
		h, s, v := RGBToHSV(c.r, c.g, c.b)
		if h != c.h || s != c.s || v != c.v {
			t.Errorf("HSV(%d,%d,%d) = %d,%d,%d want %d,%d,%d", c.r, c.g, c.b, h, s, v, c.h, c.s, c.v)
		}
	}
}

func TestQuantizeBinsInRange(t *testing.T) {
	f := func(r, g, b byte) bool {
		bin := QuantizeHSV166(r, g, b)
		return bin >= 0 && bin < HistBins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeGraysAreAchromatic(t *testing.T) {
	for _, v := range []byte{0, 60, 130, 255} {
		bin := QuantizeHSV166(v, v, v)
		if bin < 162 {
			t.Errorf("gray %d fell in chromatic bin %d", v, bin)
		}
	}
	if QuantizeHSV166(255, 0, 0) >= 162 {
		t.Error("saturated red should be chromatic")
	}
	// Darker value must never land in a higher gray bin than brighter.
	if QuantizeHSV166(10, 10, 10) > QuantizeHSV166(250, 250, 250) {
		t.Error("gray ordering broken")
	}
}

// runFrame builds a w×h frame of color runs laid in scan order, so runs
// cross row ends. The first run is black, which a zero-initialised
// "previous pixel" would misquantize (black's bin is 162, not 0), and the
// palette holds colors that differ from black in one channel only.
func runFrame(rng *rand.Rand, w, h int) *RGB {
	palette := [][3]byte{{0, 0, 0}, {255, 0, 0}, {0, 255, 0}, {0, 0, 255}}
	for len(palette) < 6 {
		palette = append(palette, [3]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	im := New(w, h)
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

// checkQuantizeRows runs QuantizeRows over rows [y0, y1) and compares
// every bin with the per-pixel QuantizeHSV166 oracle.
func checkQuantizeRows(t *testing.T, im *RGB, y0, y1 int) {
	t.Helper()
	dst := make([]int32, im.W*(y1-y0))
	QuantizeRows(im, y0, y1, dst)
	for y := y0; y < y1; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.At(x, y)
			if got, want := dst[(y-y0)*im.W+x], int32(QuantizeHSV166(r, g, b)); got != want {
				t.Fatalf("%dx%d rows [%d,%d): bin %d at %d,%d, want %d", im.W, im.H, y0, y1, got, x, y, want)
			}
		}
	}
}

// TestQuantizeRowsMatchesPixelwise: run reuse in QuantizeRows yields the
// per-pixel bins on synthesized scenes, uniform noise (no runs) and run
// frames (black first pixel, runs across row ends, width 1), whole-frame,
// from every start row y0 > 0, and split into bands.
func TestQuantizeRowsMatchesPixelwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	frames := []*RGB{Synthesize(7, 40, 30), noiseFrame(rng, 17, 9), New(3, 4)}
	for _, w := range []int{1, 1, 2, 3, 7, 40} {
		frames = append(frames, runFrame(rng, w, 1+rng.Intn(12)))
	}
	blackStarts := 0
	for _, im := range frames {
		checkQuantizeRows(t, im, 0, im.H)
		for y0 := 1; y0 < im.H; y0++ {
			if r, g, b := im.At(0, y0); r|g|b == 0 {
				blackStarts++
			}
			checkQuantizeRows(t, im, y0, im.H)
			checkQuantizeRows(t, im, y0, y0+1)
		}
		// Banded: consecutive bands fill consecutive dst ranges.
		if im.H >= 3 {
			a := 1 + rng.Intn(im.H-2)
			b := a + 1 + rng.Intn(im.H-a-1)
			whole := make([]int32, im.W*im.H)
			QuantizeRows(im, 0, im.H, whole)
			banded := make([]int32, im.W*im.H)
			for _, band := range [][2]int{{0, a}, {a, b}, {b, im.H}} {
				QuantizeRows(im, band[0], band[1], banded[band[0]*im.W:])
			}
			if !slices.Equal(banded, whole) {
				t.Fatalf("%dx%d split %d,%d: banded bins differ from whole-frame bins", im.W, im.H, a, b)
			}
		}
	}
	if blackStarts == 0 {
		t.Fatal("no sub-range starts on a black pixel; the zero-sentinel case is not covered")
	}
}

// noiseFrame is a w×h frame of uniform random pixels: no runs.
func noiseFrame(rng *rand.Rand, w, h int) *RGB {
	im := New(w, h)
	rng.Read(im.Pix)
	return im
}

func TestPlanSlicesCoverExactly(t *testing.T) {
	f := func(hRaw, maxRaw, haloRaw, granRaw uint8) bool {
		h := int(hRaw)%500 + 1
		maxRows := int(maxRaw)%120 + 3
		halo := int(haloRaw) % 10
		gran := int(granRaw)%8 + 1
		slices, err := PlanSlices(h, maxRows, halo, gran)
		if err != nil {
			return maxRows-2*halo < gran // only legitimate failure
		}
		y := 0
		for i, s := range slices {
			if s.Y0 != y || s.Y1 <= s.Y0 {
				return false
			}
			if s.TransferRows() > maxRows {
				return false
			}
			if s.TransferY0() < 0 || s.TransferY1() > h {
				return false
			}
			// Interior slices carry full halos.
			if s.Y0 >= halo && s.HaloTop != halo {
				return false
			}
			if s.Y1+halo <= h && s.HaloBottom != halo {
				return false
			}
			// All but the last payload are granularity multiples.
			if i < len(slices)-1 && s.PayloadRows()%gran != 0 {
				return false
			}
			y = s.Y1
		}
		return y == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanSlicesErrors(t *testing.T) {
	if _, err := PlanSlices(0, 100, 0, 1); err == nil {
		t.Error("zero height should fail")
	}
	if _, err := PlanSlices(100, 10, 8, 1); err == nil {
		t.Error("halo larger than budget should fail")
	}
	if _, err := PlanSlices(100, 64, -1, 1); err == nil {
		t.Error("negative halo should fail")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(42, 64, 48)
	b := Synthesize(42, 64, 48)
	if !bytes.Equal(a.Pix, b.Pix) {
		t.Fatal("same seed should give identical images")
	}
	c := Synthesize(43, 64, 48)
	if bytes.Equal(a.Pix, c.Pix) {
		t.Fatal("different seeds should differ")
	}
}

// TestSynthesizeTinyFrames renders every frame from 1×1 to 4×4: the
// scene divides the frame size by 3 (rectangles) and 6 (discs), so the
// narrow and short ones draw from empty ranges, which must yield 0
// rather than divide by zero.
func TestSynthesizeTinyFrames(t *testing.T) {
	for w := 1; w <= 4; w++ {
		for h := 1; h <= 4; h++ {
			a, b := Synthesize(42, w, h), Synthesize(42, w, h)
			if a.W != w || a.H != h || !bytes.Equal(a.Pix, b.Pix) {
				t.Fatalf("%dx%d: got a %dx%d frame, or two different ones", w, h, a.W, a.H)
			}
		}
	}
}

// TestPRNGIntnEmptyRange checks that intn over an empty range returns 0
// and still advances the stream by one draw, and that a non-empty range
// reduces that draw as before.
func TestPRNGIntnEmptyRange(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 7} {
		a, b := newPRNG(9), newPRNG(9)
		want := 0
		if v := b.next(); n > 0 {
			want = int(v % uint64(n))
		}
		if got := a.intn(n); got != want || a.s != b.s {
			t.Fatalf("intn(%d) = %d, state %x; want %d, state %x", n, got, a.s, want, b.s)
		}
	}
}

func TestCorpusDistinct(t *testing.T) {
	imgs := Corpus(1, 5, 32, 24)
	if len(imgs) != 5 {
		t.Fatalf("corpus size %d", len(imgs))
	}
	for i := 1; i < len(imgs); i++ {
		if bytes.Equal(imgs[0].Pix, imgs[i].Pix) {
			t.Fatalf("images 0 and %d identical", i)
		}
	}
}

func TestSynthesizeContentVariety(t *testing.T) {
	// The scene must populate both chromatic and achromatic bins across a
	// small corpus, or feature tests would be vacuous.
	imgs := Corpus(9, 4, 352, 240)
	bins := map[int]bool{}
	for _, im := range imgs {
		for y := 0; y < im.H; y += 3 {
			for x := 0; x < im.W; x += 3 {
				r, g, b := im.At(x, y)
				bins[QuantizeHSV166(r, g, b)] = true
			}
		}
	}
	if len(bins) < 20 {
		t.Fatalf("corpus hits only %d distinct bins; too uniform", len(bins))
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Synthesize(5, 16, 16)
	b := a.Clone()
	b.Set(0, 0, 1, 2, 3)
	if r, _, _ := a.At(0, 0); r == 1 {
		ar, _, _ := a.At(0, 0)
		br, _, _ := b.At(0, 0)
		if ar == br {
			t.Fatal("clone aliases original")
		}
	}
}

func BenchmarkQuantizeRows352x240(b *testing.B) {
	benchmarkQuantizeRows(b, Synthesize(13, 352, 240))
}

// BenchmarkQuantizeRowsNoise352x240 is run reuse's worst case: uniform
// random pixels never repeat, so every pixel pays the compare and the
// full quantization.
func BenchmarkQuantizeRowsNoise352x240(b *testing.B) {
	benchmarkQuantizeRows(b, noiseFrame(rand.New(rand.NewSource(13)), 352, 240))
}

func benchmarkQuantizeRows(b *testing.B, im *RGB) {
	dst := make([]int32, im.W*im.H)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantizeRows(im, 0, im.H, dst)
	}
}
