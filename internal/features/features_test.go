package features

import (
	"math"
	"testing"
	"testing/quick"

	"cellport/internal/img"
)

func sum32(v []float32) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x)
	}
	return s
}

func vecEqual(a, b []float32, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(float64(a[i])-float64(b[i])) > tol {
			return false
		}
	}
	return true
}

// --- color histogram -----------------------------------------------------

func TestHistogramSumsToOne(t *testing.T) {
	im := img.Synthesize(1, 80, 60)
	h := ColorHistogram(im)
	if len(h) != HistBins {
		t.Fatalf("len = %d", len(h))
	}
	if s := sum32(h); math.Abs(s-1) > 1e-5 {
		t.Fatalf("histogram sums to %v", s)
	}
}

func TestHistogramUniformImage(t *testing.T) {
	im := img.New(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			im.Set(x, y, 255, 0, 0)
		}
	}
	h := ColorHistogram(im)
	bin := img.QuantizeHSV166(255, 0, 0)
	if h[bin] != 1 {
		t.Fatalf("uniform image: bin %d = %v, want 1", bin, h[bin])
	}
}

func TestHistogramBandDecomposition(t *testing.T) {
	f := func(seed uint16, cut uint8) bool {
		im := img.Synthesize(uint64(seed), 48, 36)
		full := ColorHistogram(im)
		mid := int(cut)%(im.H-1) + 1
		var acc HistAcc
		acc.AccumulateHistogram(im, 0, mid)
		acc.AccumulateHistogram(im, mid, im.H)
		return vecEqual(full, acc.Finalize(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- correlogram ---------------------------------------------------------

func TestCorrelogramUniformImageIsOne(t *testing.T) {
	im := img.New(40, 40)
	for y := 0; y < 40; y++ {
		for x := 0; x < 40; x++ {
			im.Set(x, y, 0, 255, 0)
		}
	}
	c := ColorCorrelogram(im)
	bin := img.QuantizeHSV166(0, 255, 0)
	if math.Abs(float64(c[bin])-1) > 1e-6 {
		t.Fatalf("uniform correlogram = %v, want 1", c[bin])
	}
	for i, v := range c {
		if i != bin && v != 0 {
			t.Fatalf("bin %d = %v, want 0", i, v)
		}
	}
}

func TestCorrelogramValuesInUnitRange(t *testing.T) {
	im := img.Synthesize(5, 64, 48)
	for i, v := range ColorCorrelogram(im) {
		if v < 0 || v > 1 {
			t.Fatalf("corr[%d] = %v outside [0,1]", i, v)
		}
	}
}

// TestCorrelogramSliceDecomposition is the paper's functional invariant:
// processing halo'd slices incrementally must reproduce the whole-image
// correlogram exactly.
func TestCorrelogramSliceDecomposition(t *testing.T) {
	f := func(seed uint16, maxRaw uint8) bool {
		im := img.Synthesize(uint64(seed), 40, 70)
		full := ColorCorrelogram(im)
		maxRows := int(maxRaw)%40 + 2*CorrRadius + 1
		slices, err := img.PlanSlices(im.H, maxRows, CorrRadius, 1)
		if err != nil {
			return false
		}
		var acc CorrAcc
		for _, s := range slices {
			band := rows(im, s.TransferY0(), s.TransferY1())
			acc.AccumulateCorrelogram(band, s.HaloTop, s.HaloTop+s.PayloadRows())
		}
		return vecEqual(full, acc.Finalize(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelogramInsufficientHaloDiffers(t *testing.T) {
	// Sanity check that the invariant is non-trivial: slicing with NO halo
	// must (generally) change the result.
	im := img.Synthesize(11, 40, 64)
	full := ColorCorrelogram(im)
	var acc CorrAcc
	acc.AccumulateCorrelogram(rows(im, 0, 32), 0, 32)
	acc.AccumulateCorrelogram(rows(im, 32, 64), 0, 32)
	if vecEqual(full, acc.Finalize(), 1e-12) {
		t.Fatal("halo-free slicing accidentally matched; test image too uniform")
	}
}

// --- edge histogram ------------------------------------------------------

func TestEdgeHistogramFlatImageHasNoEdges(t *testing.T) {
	im := img.New(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			im.Set(x, y, 100, 150, 200)
		}
	}
	e := EdgeHistogram(im)
	// All gradient mass in octant 0, magnitude 0.
	if math.Abs(float64(e[0])-1) > 1e-6 {
		t.Fatalf("flat image edge histogram = %v, want bin0=1", e[0])
	}
}

func TestEdgeHistogramVerticalEdgeDirection(t *testing.T) {
	// Left half black, right half white: gradients point in +x with zero
	// gy on interior rows, i.e. octants with gx>0, ax>=ay (oct 0).
	im := img.New(32, 32)
	for y := 0; y < 32; y++ {
		for x := 16; x < 32; x++ {
			im.Set(x, y, 255, 255, 255)
		}
	}
	e := EdgeHistogram(im)
	var oct0, others float64
	for b, v := range e {
		if b/8 == 0 {
			oct0 += float64(v)
		} else if v > 0 {
			others += float64(v)
		}
	}
	if oct0 < 0.95 {
		t.Fatalf("vertical edge: octant0 mass = %v (others %v)", oct0, others)
	}
}

func TestEdgeBinRange(t *testing.T) {
	f := func(gxr, gyr int16) bool {
		gx := int(gxr) % (sobelMaxMag/2 + 1)
		gy := int(gyr) % (sobelMaxMag/2 + 1)
		b := edgeBin(gx, gy)
		return b >= 0 && b < EdgeBins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeSliceDecomposition(t *testing.T) {
	f := func(seed uint16, maxRaw uint8) bool {
		im := img.Synthesize(uint64(seed)+100, 36, 50)
		full := EdgeHistogram(im)
		maxRows := int(maxRaw)%30 + 2*EdgeRadius + 1
		slices, err := img.PlanSlices(im.H, maxRows, EdgeRadius, 1)
		if err != nil {
			return false
		}
		var acc EdgeAcc
		for _, s := range slices {
			band := rows(im, s.TransferY0(), s.TransferY1())
			acc.AccumulateEdge(band, s.HaloTop, s.HaloTop+s.PayloadRows())
		}
		return vecEqual(full, acc.Finalize(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- texture -------------------------------------------------------------

func TestTextureFlatImageEnergyInLL(t *testing.T) {
	im := img.New(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			im.Set(x, y, 200, 200, 200)
		}
	}
	tx := Texture(im)
	if math.Abs(float64(tx[9])-1) > 1e-6 {
		t.Fatalf("flat texture: LL share = %v, want 1 (vector %v)", tx[9], tx)
	}
}

func TestTextureCheckerboardHasDetailEnergy(t *testing.T) {
	im := img.New(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			if (x+y)%2 == 0 {
				im.Set(x, y, 255, 255, 255)
			}
		}
	}
	tx := Texture(im)
	// A 1-pixel checkerboard concentrates energy in the level-1 HH band.
	if tx[2] < 0.5 {
		t.Fatalf("checkerboard HH1 share = %v, want dominant (vector %v)", tx[2], tx)
	}
}

func TestTextureTileAlignedSliceDecomposition(t *testing.T) {
	f := func(seed uint16) bool {
		im := img.Synthesize(uint64(seed)+500, 96, 160)
		full := Texture(im)
		slices, err := img.PlanSlices(im.H, 64, 0, TexTile)
		if err != nil {
			return false
		}
		var acc TexAcc
		for _, s := range slices {
			band := rows(im, s.TransferY0(), s.TransferY1())
			acc.AccumulateTexture(band, 0, band.H)
		}
		return vecEqual(full, acc.Finalize(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTexturePartialTilesHandled(t *testing.T) {
	// 50×45 image: partial tiles on both axes must not panic and must
	// produce a unit-sum vector.
	im := img.Synthesize(77, 50, 45)
	tx := Texture(im)
	if s := sum32(tx); math.Abs(s-1) > 1e-5 {
		t.Fatalf("partial-tile texture sums to %v", s)
	}
}

// --- shared --------------------------------------------------------------

func TestNormalizeZeroCounts(t *testing.T) {
	out := normalize(make([]uint64, 5))
	for _, v := range out {
		if v != 0 {
			t.Fatal("zero counts should normalize to zero vector")
		}
	}
}

func TestAllFeatureVectorsHaveDeclaredDims(t *testing.T) {
	im := img.Synthesize(2, 352, 240)
	if got := len(ColorHistogram(im)); got != 166 {
		t.Errorf("CH dim = %d", got)
	}
	if got := len(ColorCorrelogram(im)); got != 166 {
		t.Errorf("CC dim = %d", got)
	}
	if got := len(EdgeHistogram(im)); got != 64 {
		t.Errorf("EH dim = %d", got)
	}
	if got := len(Texture(im)); got != 10 {
		t.Errorf("TX dim = %d", got)
	}
}

func BenchmarkColorHistogram352x240(b *testing.B) {
	im := img.Synthesize(1, 352, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ColorHistogram(im)
	}
}

func BenchmarkColorCorrelogram352x240(b *testing.B) {
	im := img.Synthesize(1, 352, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ColorCorrelogram(im)
	}
}

func BenchmarkEdgeHistogram352x240(b *testing.B) {
	im := img.Synthesize(1, 352, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeHistogram(im)
	}
}

func BenchmarkTexture352x240(b *testing.B) {
	im := img.Synthesize(1, 352, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Texture(im)
	}
}
