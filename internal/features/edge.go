package features

import "cellport/internal/img"

// Edge-histogram geometry: Sobel is a 3×3 operator, so bands need one
// halo row per side.
const (
	EdgeRadius  = 1
	edgeMags    = 8
	sobelMaxMag = 2040 // max |gx|+|gy| for 8-bit input
)

// EdgeAcc accumulates edge-histogram counts across row bands.
type EdgeAcc struct {
	Counts [EdgeBins]uint64
}

// AccumulateEdge processes payload rows [py0, py1) of band (which includes
// any halo rows). The §5.2 pipeline: RGB→gray conversion, Sobel gradients,
// per-pixel edge angle and magnitude, then quantization into an
// 8-direction × 8-magnitude histogram. Gradients clamp (replicate) at the
// band edge, which coincides with the image edge exactly when no halo was
// available — the same border rule as the correlogram.
// Interior pixels (away from every clamped border) take a fast path over
// three hoisted row slices with no per-access clamping; border rows and
// columns keep the clamped scan. Gradients are exact integers, so the
// split is bit-identical to the uniform clamped scan (enforced by the
// reference-vs-optimized property test).
func (a *EdgeAcc) AccumulateEdge(band *img.RGB, py0, py1 int) {
	w, h := band.W, band.H
	plane := grayPlane(band)
	defer grayPool.Put(plane)
	gray := *plane
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
	clamped := func(x, y int) {
		// Sobel operators.
		gx := -at(x-1, y-1) + at(x+1, y-1) +
			-2*at(x-1, y) + 2*at(x+1, y) +
			-at(x-1, y+1) + at(x+1, y+1)
		gy := -at(x-1, y-1) - 2*at(x, y-1) - at(x+1, y-1) +
			at(x-1, y+1) + 2*at(x, y+1) + at(x+1, y+1)
		a.Counts[edgeBin(gx, gy)]++
	}
	for y := py0; y < py1; y++ {
		if y < 1 || y > h-2 || w < 3 {
			for x := 0; x < w; x++ {
				clamped(x, y)
			}
			continue
		}
		up := gray[(y-1)*w : y*w : y*w]
		mid := gray[y*w : y*w+w : y*w+w]
		dn := gray[(y+1)*w : (y+1)*w+w : (y+1)*w+w]
		clamped(0, y)
		for x := 1; x < w-1; x++ {
			a00, a01, a02 := int(up[x-1]), int(up[x]), int(up[x+1])
			a10, a12 := int(mid[x-1]), int(mid[x+1])
			a20, a21, a22 := int(dn[x-1]), int(dn[x]), int(dn[x+1])
			gx := -a00 + a02 - 2*a10 + 2*a12 - a20 + a22
			gy := -a00 - 2*a01 - a02 + a20 + 2*a21 + a22
			a.Counts[edgeBin(gx, gy)]++
		}
		clamped(w-1, y)
	}
}

// edgeBin quantizes a gradient into one of 64 bins: the octant of the
// gradient direction (integer-only, no atan2 — the comparisons an SPE
// would use) crossed with the L1 magnitude level.
func edgeBin(gx, gy int) int {
	ax, ay := gx, gy
	if ax < 0 {
		ax = -ax
	}
	if ay < 0 {
		ay = -ay
	}
	mag := ax + ay
	magBin := mag * edgeMags / (sobelMaxMag + 1)
	if magBin >= edgeMags {
		magBin = edgeMags - 1
	}
	oct := 0
	if gy < 0 {
		oct |= 4
	}
	if gx < 0 {
		oct |= 2
	}
	if ay > ax {
		oct |= 1
	}
	return oct*edgeMags + magBin
}

// Finalize returns the normalized 64-bin edge histogram.
func (a *EdgeAcc) Finalize() []float32 { return normalize(a.Counts[:]) }

// EdgeHistogram computes the whole-image reference edge histogram.
func EdgeHistogram(im *img.RGB) []float32 {
	var acc EdgeAcc
	acc.AccumulateEdge(im, 0, im.H)
	return acc.Finalize()
}

// Nominal per-pixel operation counts (gray conversion, two 3×3
// convolutions, magnitude/octant quantization, counter update).
const (
	EdgeOpsPerPixel      = 5.0 + 22.0 + 10.0 + 2.0
	EdgeBranchesPerPixel = 9.0
)
