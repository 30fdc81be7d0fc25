package marvel

import (
	"cellport/internal/core"
	"cellport/internal/mainmem"
)

// Shared wrapper layouts — the Go analog of the C header both sides of a
// port compile against. The PPE builds wrappers with these fields; the SPE
// kernels compute the same offsets to DMA individual fields.
//
// Extraction wrapper (one per kernel invocation):
//
//	hdr     32 B   [W][H][stride][pixelsEA][Y0][Y1][0][0]  (uint32 each)
//	out     per-kernel output (padded to 16 B): the float32 feature
//	        vector for OpRun, or the raw accumulator for OpRunPartial
//
// [Y0, Y1) selects the payload rows the kernel is responsible for —
// Y0=0, Y1=H for a whole-image invocation; a sub-range for data-parallel
// extraction across several SPEs (window halos still clamp at the *image*
// boundary, not the partition boundary).
//
// The pixel block itself is a separate 128-byte-aligned allocation shared
// by all four extraction kernels; its address travels in the header —
// the kernel "fetches its required data via DMA" (§3.3).
//
// Detection wrapper (one per feature classification):
//
//	hdr     16 B   [dim][numSV][modelEA][encBytes]
//	feature dim float32 (padded)
//	score   16 B   [score f32][class u32][pad]
const (
	hdrBytes   = 16
	exHdrBytes = 32
	scoreBytes = 16
)

// pad16 rounds n up to a multiple of 16.
func pad16(n uint32) uint32 { return (n + 15) &^ 15 }

// outBytes returns the padded byte size of an extraction output field:
// large enough for both the finalized feature vector and the raw
// accumulator a partial (data-parallel) invocation emits.
func outBytes(id KernelID) uint32 {
	k := kernelOf(id)
	final := pad16(uint32(k.dim) * 4)
	raw := pad16(k.rawWords * 4)
	if raw > final {
		return raw
	}
	return final
}

// Extraction wrapper field layout (kernel-side offset math must match
// core.NewWrapper's: fields padded to 16 in declaration order).
func extractFields(id KernelID) []core.WrapperField {
	return []core.WrapperField{
		{Name: "hdr", Size: exHdrBytes},
		{Name: "out", Size: outBytes(id)},
	}
}

// Kernel-side extraction offsets.
func extractOutOff() uint32 { return exHdrBytes }

// Detection wrapper field layout.
func detectFields(dim int) []core.WrapperField {
	return []core.WrapperField{
		{Name: "hdr", Size: hdrBytes},
		{Name: "feature", Size: pad16(uint32(dim) * 4)},
		{Name: "score", Size: scoreBytes},
	}
}

// Kernel-side detection offsets.
func detectFeatureOff() uint32      { return hdrBytes }
func detectScoreOff(dim int) uint32 { return hdrBytes + pad16(uint32(dim)*4) }

// fillExtractHeader writes the extraction header fields for a payload row
// range [y0, y1).
func fillExtractHeader(w *core.Wrapper, width, height, stride int, pixEA mainmem.Addr, y0, y1 int) {
	core.PutUint32s(w.Bytes("hdr"), []uint32{
		uint32(width), uint32(height), uint32(stride), uint32(pixEA),
		uint32(y0), uint32(y1), 0, 0,
	})
}

// fillDetectHeader writes the detection header fields.
func fillDetectHeader(w *core.Wrapper, dim, numSV int, modelEA mainmem.Addr, encBytes uint32) {
	core.PutUint32s(w.Bytes("hdr"), []uint32{
		uint32(dim), uint32(numSV), uint32(modelEA), encBytes,
	})
}
