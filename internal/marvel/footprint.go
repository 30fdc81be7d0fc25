package marvel

import (
	"fmt"
	"io"

	"cellport/internal/img"
	"cellport/internal/ls"
)

// Local-store footprint planning — §3.2: "the kernels have to be small
// enough to fit in the local store, but large enough to provide some
// meaningful computation". Footprint reports, without running the
// simulator, how an extraction kernel's buffers land in the 256 KB LS for
// a given frame size: the same arithmetic the kernel performs at
// dispatch, factored out so a porting effort can check fit up front.

// Footprint describes one kernel's planned local-store usage.
type Footprint struct {
	Kernel  KernelID
	Variant Variant
	// CodeBytes + StackBytes are fixed reservations.
	CodeBytes  uint32
	StackBytes uint32
	// Buffers is the pixel-band buffer count (1 naive, 2 optimized);
	// BufferBytes the size of each; ScratchBytes per-buffer scratch
	// (quantized bins / gray rows); OutBytes the output field.
	Buffers      int
	BufferBytes  uint32
	ScratchBytes uint32
	OutBytes     uint32
	// Slices is the number of DMA'd bands per image; RowsPerSlice the
	// maximum transferred rows per band.
	Slices       int
	RowsPerSlice int
	// PeakBytes is the total planned LS usage; Free what remains.
	PeakBytes uint32
	FreeBytes uint32
}

// PlanFootprint computes the LS layout for a kernel over a w×h frame.
// It fails exactly when the kernel itself would fail to plan (frame too
// wide, code too big, no room for one granule plus halos).
func PlanFootprint(id KernelID, v Variant, w, h int) (*Footprint, error) {
	store := ls.New()
	defer store.Release()
	slices, err := planKernel(store, id, v, w, h)
	if err != nil {
		return nil, err
	}
	k := kernelOf(id)
	stride := img.StrideFor(w)
	buffers, oBytes := v.buffers(), outBytes(id)
	maxRows := 0
	for _, s := range slices {
		if r := s.TransferRows(); r > maxRows {
			maxRows = r
		}
	}
	fp := &Footprint{
		Kernel:       id,
		Variant:      v,
		CodeBytes:    k.CodeBytes,
		StackBytes:   ls.DefaultStackBytes,
		Buffers:      buffers,
		BufferBytes:  uint32(maxRows * stride),
		ScratchBytes: uint32(maxRows * w * k.scratchRows),
		OutBytes:     oBytes,
		Slices:       len(slices),
		RowsPerSlice: maxRows,
	}
	// Replay the kernel's allocations to get the true peak.
	for i := 0; i < buffers; i++ {
		if _, err := store.Alloc(fp.BufferBytes, 16); err != nil {
			return nil, err
		}
		if fp.ScratchBytes > 0 {
			if _, err := store.Alloc(fp.ScratchBytes, 16); err != nil {
				return nil, err
			}
		}
	}
	if _, err := store.Alloc(oBytes, 16); err != nil {
		return nil, err
	}
	fp.PeakBytes = store.Used()
	fp.FreeBytes = store.Free()
	return fp, nil
}

// RenderFootprints prints the LS budget table for all extraction kernels.
func RenderFootprints(w io.Writer, variant Variant, width, height int) error {
	fmt.Fprintf(w, "Local-store budget, %dx%d frame, %s kernels (LS = %d KB, stack %d KB)\n\n",
		width, height, variant, ls.Size/1024, ls.DefaultStackBytes/1024)
	fmt.Fprintf(w, "%-12s %8s %6s %10s %10s %7s %7s %9s %8s\n",
		"Kernel", "code", "bufs", "buf bytes", "scratch", "slices", "rows", "peak", "free")
	for _, id := range ExtractKernels {
		fp, err := PlanFootprint(id, variant, width, height)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %7dK %6d %10d %10d %7d %7d %8dK %7dK\n",
			fp.Kernel, fp.CodeBytes/1024, fp.Buffers, fp.BufferBytes, fp.ScratchBytes,
			fp.Slices, fp.RowsPerSlice, fp.PeakBytes/1024, fp.FreeBytes/1024)
	}
	return nil
}
