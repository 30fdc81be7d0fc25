package marvel

import (
	"testing"

	"cellport/internal/core"
	"cellport/internal/mainmem"
)

// RunHistogramKernel runs one whole-frame OpRun of spec, a KCH extraction
// kernel, over the first frame of w and reports whether the kernel
// returned success.
func RunHistogramKernel(t *testing.T, spec core.KernelSpec, w Workload) bool {
	im := w.Generate()[0]
	return runFailureCase(t, spec, func(mem *mainmem.Memory, wr *core.Wrapper) {
		pix := mem.MustAlloc(uint32(im.Bytes()), 128)
		copy(mem.Bytes(pix, uint32(im.Bytes())), im.Pix)
		fillExtractHeader(wr, im.W, im.H, im.Stride, pix, 0, im.H)
	}) == resOK
}
