package img

// HistBins is the size of MARVEL's quantized HSV color space: 162
// chromatic bins (18 hues × 3 saturations × 3 values) plus 4 achromatic
// (gray) bins — the Smith–Chang 166-color quantization ([18]) used by
// both the color histogram and the color correlogram (§5.2).
const HistBins = 166

// Quantization thresholds (fixed-point; pixel channels are 0..255).
const (
	grayScaleSat = 26 // s <= 10% of 255: treat as achromatic
	grayScaleVal = 26 // v <= 10% of 255: treat as black
)

// RGBToHSV converts an 8-bit RGB pixel to integer HSV with h in [0, 360),
// s and v in [0, 255]. The math is integer-only, mirroring what an
// SPE-friendly fixed-point implementation computes.
func RGBToHSV(r, g, b byte) (h int, s, v byte) {
	ri, gi, bi := int(r), int(g), int(b)
	max := ri
	if gi > max {
		max = gi
	}
	if bi > max {
		max = bi
	}
	min := ri
	if gi < min {
		min = gi
	}
	if bi < min {
		min = bi
	}
	v = byte(max)
	d := max - min
	if max == 0 || d == 0 {
		return 0, 0, v
	}
	s = byte(255 * d / max)
	switch max {
	case ri:
		h = (60*(gi-bi)/d + 360) % 360
	case gi:
		h = 60*(bi-ri)/d + 120
	default:
		h = 60*(ri-gi)/d + 240
	}
	if h < 0 {
		h += 360
	}
	return h, s, v
}

// QuantizeHSV166 maps an RGB pixel to its bin in the 166-color space.
// Chromatic bins are hue (18 × 20°) × saturation (3) × value (3) =
// 0..161; achromatic pixels fall into 4 gray bins 162..165 by value.
func QuantizeHSV166(r, g, b byte) int {
	h, s, v := RGBToHSV(r, g, b)
	if s <= grayScaleSat || v <= grayScaleVal {
		g := int(v) * 4 / 256
		return 162 + g
	}
	hbin := h / 20 // 0..17
	sbin := (int(s) - grayScaleSat) * 3 / (256 - grayScaleSat)
	if sbin > 2 {
		sbin = 2
	}
	vbin := (int(v) - grayScaleVal) * 3 / (256 - grayScaleVal)
	if vbin > 2 {
		vbin = 2
	}
	return hbin*9 + sbin*3 + vbin
}

// QuantizeRows fills dst (len >= W*(y1-y0)) with the bin index of every
// pixel in rows [y0, y1) — the form both the PPE reference and the SPE
// kernels share.
//
// A pixel that repeats the previous one in scan order (across row ends
// too) reuses its bin instead of re-running QuantizeHSV166; synthetic
// frames are mostly flat runs, so most pixels take that path. The bins
// are exactly the per-pixel ones.
func QuantizeRows(im *RGB, y0, y1 int, dst []int32) {
	w := im.W
	prev, bin := uint32(1<<24), int32(0) // prev matches no pixel
	for y := y0; y < y1; y++ {
		off := y * im.Stride
		row := im.Pix[off : off+3*w : off+3*w]
		d := dst[(y-y0)*w : (y-y0+1)*w]
		for x := range d {
			r, g, b := row[3*x], row[3*x+1], row[3*x+2]
			if k := uint32(r)<<16 | uint32(g)<<8 | uint32(b); k != prev {
				prev, bin = k, int32(QuantizeHSV166(r, g, b))
			}
			d[x] = bin
		}
	}
}
