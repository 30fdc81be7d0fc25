package features

import (
	"sync"

	"cellport/internal/img"
)

// Correlogram geometry (§5.2: "a square window of size 17x17 around P").
const (
	CorrWindow = 17
	CorrRadius = CorrWindow / 2 // halo rows required per side
)

// CorrAcc accumulates color-autocorrelogram statistics across row bands.
// For every pixel P of quantized color c, Same[c] counts the neighbours
// inside P's (clamped) 17×17 window sharing c, and Total[c] counts all
// neighbours considered — so the finalized feature is the per-color
// clustering probability ([10]).
type CorrAcc struct {
	Same  [HistBins]uint64
	Total [HistBins]uint64
}

// A column census entry counts one color in one column of the window, so
// it never exceeds CorrWindow; this line stops compiling if CorrWindow
// outgrows the uint8 that holds it.
const _ uint8 = CorrWindow

// corrScratch is the per-call working set: the quantized band and the
// column census. Exec workers call AccumulateCorrelogram concurrently, so
// each call takes its own from corrPool.
type corrScratch struct {
	bins []int32
	col  []uint8
}

var corrPool = sync.Pool{New: func() any { return new(corrScratch) }}

// AccumulateCorrelogram processes payload rows [py0, py1) of band, a
// sub-image that already includes any halo rows (up to CorrRadius above
// and below the payload). Windows are clamped to the band: for interior
// bands the halo guarantees the window never reaches the band edge, and
// for bands at the image boundary the band edge *is* the image boundary —
// the §3.4 border-condition rule.
//
// The census is kept per column: col[x*HistBins+c] counts the pixels of
// color c in column x among the window rows of the current payload row,
// so advancing the payload row costs one increment (the row entering the
// window) and one decrement (the row leaving it) per column. A pixel's
// same-color count is then the sum of its color's entries over the
// columns of its clamped window — CorrWindow byte loads, no stores. When
// a pixel repeats its left neighbour's color, the count slides instead:
// add the column entering the window, subtract the one leaving it. Total
// is the closed form winH*winW-1. Counts are exact integers, so Same and
// Total are bit-identical to the reference scan (enforced by the
// reference-vs-optimized property test).
func (a *CorrAcc) AccumulateCorrelogram(band *img.RGB, py0, py1 int) {
	if py0 >= py1 {
		return
	}
	w, h := band.W, band.H
	s := corrPool.Get().(*corrScratch)
	defer corrPool.Put(s)
	if cap(s.bins) < w*h {
		s.bins = make([]int32, w*h)
	}
	if cap(s.col) < w*HistBins {
		s.col = make([]uint8, w*HistBins)
	}
	bins, col := s.bins[:w*h], s.col[:w*HistBins]
	clear(col)
	img.QuantizeRows(band, 0, h, bins)

	// census adds (d=1) or removes (d=0xff, i.e. -1) window row r.
	census := func(r int, d uint8) {
		for x, c := range bins[r*w : r*w+w] {
			col[x*HistBins+int(c)] += d
		}
	}
	lo, hi := max(py0-CorrRadius, 0), min(py0+CorrRadius, h-1)
	for r := lo; r <= hi; r++ {
		census(r, 1)
	}
	for y := py0; y < py1; y++ {
		if yLo := max(y-CorrRadius, 0); yLo > lo {
			census(lo, 0xff)
			lo = yLo
		}
		if yHi := min(y+CorrRadius, h-1); yHi > hi {
			hi = yHi
			census(hi, 1)
		}
		winH := uint64(hi - lo + 1)
		var same uint64
		prev := int32(-1)
		for x, c := range bins[y*w : y*w+w] {
			xLo, xHi := max(x-CorrRadius, 0), min(x+CorrRadius, w-1)
			if c == prev {
				if xHi == x+CorrRadius {
					same += uint64(col[xHi*HistBins+int(c)])
				}
				if xLo > 0 {
					same -= uint64(col[(xLo-1)*HistBins+int(c)])
				}
			} else {
				same = 0
				for i := xLo*HistBins + int(c); i <= xHi*HistBins+int(c); i += HistBins {
					same += uint64(col[i])
				}
				prev = c
			}
			// Exclude P itself from both numerator and denominator.
			a.Same[c] += same - 1
			a.Total[c] += winH*uint64(xHi-xLo+1) - 1
		}
	}
}

// Finalize returns the 166-dimensional autocorrelogram: for each color,
// the probability that a window neighbour of a pixel of that color shares
// it (zero for colors absent from the image).
func (a *CorrAcc) Finalize() []float32 {
	out := make([]float32, HistBins)
	for c := 0; c < HistBins; c++ {
		if a.Total[c] > 0 {
			out[c] = float32(float64(a.Same[c]) / float64(a.Total[c]))
		}
	}
	return out
}

// ColorCorrelogram computes the whole-image reference autocorrelogram.
func ColorCorrelogram(im *img.RGB) []float32 {
	var acc CorrAcc
	acc.AccumulateCorrelogram(im, 0, im.H)
	return acc.Finalize()
}

// Nominal per-pixel operation counts: quantization plus one
// compare-accumulate per window position. The window walk is byte-wide
// and branch-light when vectorized (compare + sum across 16 lanes), which
// is why the optimized SPE version SIMDizes so well.
const (
	CorrOpsPerPixel      = 38.0 + 2.0*CorrWindow*CorrWindow
	CorrBranchesPerPixel = 7.0 + CorrWindow // one loop branch per window row
)
