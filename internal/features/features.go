// Package features implements MARVEL's four visual feature extractors
// (§5.2): the 166-bin HSV color histogram, the color (auto)correlogram
// over a 17×17 window, the wavelet-energy texture feature, and the Sobel
// edge histogram — plus nominal operation counts per pixel that the cost
// models turn into virtual time.
//
// Every extractor comes in two forms that must agree exactly:
//
//   - a whole-image reference function (what the sequential C++
//     application computes), and
//   - a row-range accumulator over slices with halos (what the SPE
//     kernels compute incrementally as DMA'd bands arrive, §3.4).
//
// The agreement is the paper's "application functional at all times"
// invariant and is enforced by property tests.
package features

import (
	"sync"

	"cellport/internal/img"
)

// Feature vector dimensions.
const (
	HistBins = img.HistBins // color histogram & correlogram: 166
	EdgeBins = 64           // 8 gradient octants × 8 magnitude levels
	TexBins  = 10           // 3 Haar levels × {LH,HL,HH} + final LL
)

// grayPool recycles the luma planes the edge and texture accumulators
// convert each band into; kernels run concurrently in calibration workers
// and in the executor.
var grayPool sync.Pool // holds *[]byte

// grayPlane converts band to luma in a pooled plane. The caller returns
// the plane to grayPool when done with it.
func grayPlane(band *img.RGB) *[]byte {
	p, _ := grayPool.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = band.Gray(*p)
	return p
}

// normalize converts counts to a unit-sum float32 vector (all-zero counts
// yield the zero vector).
func normalize(counts []uint64) []float32 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	out := make([]float32, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float32(float64(c) / float64(total))
	}
	return out
}
