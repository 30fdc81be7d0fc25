package features

import "cellport/internal/img"

// Texture geometry: the image is processed in 32×32 tiles (replicating
// edge pixels for partial tiles), each decomposed by a 3-level 2-D Haar
// transform; the feature is the distribution of absolute coefficient
// energy across the spatial-frequency subbands ([14], §5.2): for each
// level the HL, LH and HH detail bands, plus the final approximation.
const (
	TexTile   = 32
	texLevels = 3
)

// TexAcc accumulates subband energies across row bands. Tiling is
// anchored at the image origin, so bands must start at multiples of
// TexTile rows (PlanSlices' granularity argument) for band-wise
// accumulation to equal the whole-image computation.
type TexAcc struct {
	Energy [TexBins]uint64
	Pixels uint64
}

// AccumulateTexture processes payload rows [py0, py1) of band (no halo
// needed; py0 must be tile-aligned relative to the image unless it is 0).
func (a *TexAcc) AccumulateTexture(band *img.RGB, py0, py1 int) {
	w := band.W
	plane := grayPlane(band)
	defer grayPool.Put(plane)
	gray := *plane
	var tile [TexTile][TexTile]int32
	for ty := py0; ty < py1; ty += TexTile {
		for tx := 0; tx < w; tx += TexTile {
			// Load tile with edge replication (within the payload rows:
			// vertical replication only happens at the true image bottom,
			// where the band ends). The in-bounds span copies from a
			// hoisted row slice; only the replicated tail clamps.
			for y := 0; y < TexTile; y++ {
				sy := ty + y
				if sy > py1-1 {
					sy = py1 - 1
				}
				row := gray[sy*w : sy*w+w : sy*w+w]
				dst := tile[y][:]
				n := w - tx
				if n > TexTile {
					n = TexTile
				}
				for x := 0; x < n; x++ {
					dst[x] = int32(row[tx+x])
				}
				last := int32(row[w-1])
				for x := n; x < TexTile; x++ {
					dst[x] = last
				}
			}
			a.haarTile(&tile)
			a.Pixels += TexTile * TexTile
		}
	}
}

// haarTile runs the 3-level 2-D Haar decomposition in place and
// accumulates |coefficient| sums per subband.
//
// Both butterfly passes walk hoisted row slices: the row pass works on a
// full-slice row, and the column pass is restructured row-major — the
// source row pair (2y, 2y+1) produces the approximation row y and detail
// row half+y of a scratch matrix, which is then copied back. (In-place
// row-pair writes are impossible: row half+y is a later iteration's
// source.) The strided per-column walk this replaces is the transform's
// structural weakness on real SPEs (see the note at the bottom of this
// file); here it just cost bounds checks and cache misses. All arithmetic
// is integer, so the layout change is bit-identical to the column-major
// pass (enforced by the reference-vs-optimized property test).
func (a *TexAcc) haarTile(t *[TexTile][TexTile]int32) {
	size := TexTile
	var tmp [TexTile]int32
	var sc [TexTile][TexTile]int32
	for level := 0; level < texLevels; level++ {
		half := size / 2
		// Row pass on the current LL region.
		for y := 0; y < size; y++ {
			row := t[y][:size:size]
			for x := 0; x < half; x++ {
				p, q := row[2*x], row[2*x+1]
				tmp[x] = (p + q) >> 1 // approximation
				tmp[half+x] = p - q   // detail
			}
			copy(row, tmp[:size])
		}
		// Column pass, row-major via the scratch matrix.
		for y := 0; y < half; y++ {
			r0 := t[2*y][:size:size]
			r1 := t[2*y+1][:size:size]
			approx := sc[y][:size:size]
			detail := sc[half+y][:size:size]
			for x := 0; x < size; x++ {
				p, q := r0[x], r1[x]
				approx[x] = (p + q) >> 1
				detail[x] = p - q
			}
		}
		for y := 0; y < size; y++ {
			copy(t[y][:size], sc[y][:size])
		}
		// Accumulate detail-band energies: HL (high x, low y), LH, HH.
		var hl, lh, hh uint64
		for y := 0; y < half; y++ {
			for _, v := range t[y][half:size] {
				hl += absU(v)
			}
		}
		for y := half; y < size; y++ {
			row := t[y][:size:size]
			for _, v := range row[:half] {
				lh += absU(v)
			}
			for _, v := range row[half:] {
				hh += absU(v)
			}
		}
		a.Energy[level*3+0] += hl
		a.Energy[level*3+1] += lh
		a.Energy[level*3+2] += hh
		size = half
	}
	// Final approximation band (size×size LL).
	var ll uint64
	for y := 0; y < size; y++ {
		for _, v := range t[y][:size] {
			ll += absU(v)
		}
	}
	a.Energy[9] += ll
}

func absU(v int32) uint64 {
	if v < 0 {
		v = -v
	}
	return uint64(v)
}

// Finalize returns the 10-dimensional relative subband-energy vector.
func (a *TexAcc) Finalize() []float32 { return normalize(a.Energy[:]) }

// Texture computes the whole-image reference texture feature.
func Texture(im *img.RGB) []float32 {
	var acc TexAcc
	acc.AccumulateTexture(im, 0, im.H)
	return acc.Finalize()
}

// Nominal per-pixel operation counts (gray conversion, ~2.7 passes of the
// Haar butterfly per pixel across levels, energy accumulation). The
// transform's strided column accesses and short rows limit SIMD benefit —
// the structural reason TXExtract shows the weakest SPE speed-up in
// Table 1.
const (
	TexOpsPerPixel      = 5.0 + 11.0 + 2.0
	TexBranchesPerPixel = 4.0
)
