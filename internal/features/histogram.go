package features

import "cellport/internal/img"

// HistAcc accumulates color-histogram counts across row bands.
type HistAcc struct {
	Counts [HistBins]uint64
	Pixels uint64
}

// AccumulateHistogram adds rows [y0, y1) of im to the accumulator. The
// color histogram is pointwise, so bands need no halo.
//
// The inner loop walks a full-row slice in 3-byte steps so the compiler
// can hoist the bounds checks out of the per-pixel path. A pixel that
// repeats the previous one in scan order reuses its bin, as in
// img.QuantizeRows. Counts are exact integers, bit-identical to the naive
// scan (enforced by the reference-vs-optimized property test).
func (a *HistAcc) AccumulateHistogram(im *img.RGB, y0, y1 int) {
	w := im.W
	prev, bin := uint32(1<<24), 0 // prev matches no pixel
	for y := y0; y < y1; y++ {
		off := y * im.Stride
		row := im.Pix[off : off+3*w : off+3*w]
		for ; len(row) >= 3; row = row[3:] {
			if k := uint32(row[0])<<16 | uint32(row[1])<<8 | uint32(row[2]); k != prev {
				prev, bin = k, img.QuantizeHSV166(row[0], row[1], row[2])
			}
			a.Counts[bin]++
		}
		a.Pixels += uint64(w)
	}
}

// Finalize returns the normalized 166-bin histogram.
func (a *HistAcc) Finalize() []float32 { return normalize(a.Counts[:]) }

// ColorHistogram computes the whole-image reference histogram [18]: the
// image's colors are quantized into the 166-bin HSV space and counted.
func ColorHistogram(im *img.RGB) []float32 {
	var acc HistAcc
	acc.AccumulateHistogram(im, 0, im.H)
	return acc.Finalize()
}

// Nominal per-pixel operation counts for the histogram kernel (integer
// HSV conversion, quantization, counter update). Used by the cost models.
const (
	HistOpsPerPixel      = 38.0
	HistBranchesPerPixel = 7.0
)
