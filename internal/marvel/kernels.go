package marvel

import (
	"cmp"
	"fmt"

	"cellport/internal/core"
	"cellport/internal/features"
	"cellport/internal/img"
	"cellport/internal/ls"
	"cellport/internal/mainmem"
	"cellport/internal/mfc"
	"cellport/internal/spe"
)

// Variant selects the kernel implementation stage of §5.3: the first
// functional port, or the fully optimized version behind the same
// SPEInterface (the modularity the strategy is designed around).
type Variant int

// Kernel variants.
const (
	// Naive is the first functional port: single-buffered DMA, mostly
	// scalar code, data-dependent branches with static prediction.
	Naive Variant = iota
	// Optimized applies the §4.1 optimizations: DMA multibuffering and
	// lists, SIMDization at the kernel's natural width, branch removal.
	Optimized
)

func (v Variant) String() string {
	if v == Optimized {
		return "optimized"
	}
	return "naive"
}

// Dispatcher opcodes (SPU_Run_* in Listing 1).
const (
	// OpRun processes the header's row range and writes the finalized
	// feature vector (callers pass the full image range).
	OpRun core.Opcode = 1
	// OpRunPartial processes the header's row range and writes the raw
	// accumulator words instead, for PPE-side merging across SPEs
	// (data-parallel extraction).
	OpRunPartial core.Opcode = 2
)

// Kernel result codes (mailbox words).
const (
	resOK  uint32 = 0
	resErr uint32 = 0xE0000001
)

// Accumulator is the incremental per-slice feature computation every
// extraction kernel runs over its DMA'd bands. The real-execution backend
// drives the same accumulators over the same slice plan (ExecPlan), so it
// reproduces kernel outputs bit for bit.
type Accumulator interface {
	// Process folds payload rows [y0, y1) of band (band-relative
	// coordinates) into the accumulator.
	Process(band *img.RGB, y0, y1 int)
	// Finalize returns the feature vector. Call once, after the last
	// slice.
	Finalize() []float32
}

type histAcc struct{ a features.HistAcc }

func (h *histAcc) Process(b *img.RGB, y0, y1 int) { h.a.AccumulateHistogram(b, y0, y1) }
func (h *histAcc) Finalize() []float32            { return h.a.Finalize() }

type corrAcc struct{ a features.CorrAcc }

func (c *corrAcc) Process(b *img.RGB, y0, y1 int) { c.a.AccumulateCorrelogram(b, y0, y1) }
func (c *corrAcc) Finalize() []float32            { return c.a.Finalize() }

type edgeAcc struct{ a features.EdgeAcc }

func (e *edgeAcc) Process(b *img.RGB, y0, y1 int) { e.a.AccumulateEdge(b, y0, y1) }
func (e *edgeAcc) Finalize() []float32            { return e.a.Finalize() }

type texAcc struct{ a features.TexAcc }

func (t *texAcc) Process(b *img.RGB, y0, y1 int) { t.a.AccumulateTexture(b, y0, y1) }
func (t *texAcc) Finalize() []float32            { return t.a.Finalize() }

// ExtractKernels lists the four extraction kernels in KernelID order: the
// order the port places them on SPE0-3, runs them under SingleSPE, and
// computes the host reference features.
var ExtractKernels = []KernelID{KCH, KCC, KTX, KEH}

// NewAccumulator returns a fresh accumulator for an extraction kernel. It
// panics for KCD, like every kernel-table read.
func NewAccumulator(id KernelID) Accumulator { return kernelOf(id).newAcc() }

// detectShare is kernel id's share of the per-image concept-detection
// work, by nominal operations: how Schedule.Groups splits detection time
// across the four extraction lanes (the Eq. 3 lane construction of §4.2).
func detectShare(id KernelID) float64 {
	k := kernelOf(id)
	return detectNomOps(k.numSV, k.dim) / detectNomOpsAll()
}

// buffers is the variant's DMA buffer count: the optimized kernels
// double-buffer.
func (v Variant) buffers() int {
	if v == Optimized {
		return 2
	}
	return 1
}

// chargeExtract charges the SPU time for processing `pixels` payload
// pixels under the given variant's calibration.
func chargeExtract(ctx *spe.Context, id KernelID, v Variant, pixels float64) {
	cal := kernelOf(id)
	label := id.String()
	switch v {
	case Optimized:
		// Branch stalls are gone: removed, hinted, or folded into SIMD
		// selects (§4.1); their residue is inside OptEff.
		ctx.ComputeSIMD(cal.NomOpsPerPixel*pixels, cal.OptWidth, cal.OptEff, label)
	default:
		if cal.NaiveSIMD {
			ctx.ComputeSIMD(cal.NomOpsPerPixel*pixels, cal.NaiveWidth, cal.NaiveEff, label)
		} else {
			ctx.ComputeCycles(cal.NomOpsPerPixel*pixels/(ctx.Model().ScalarIPC*cal.NaiveEff), label)
			ctx.ComputeBranches(cal.NomBranchesPerPixel*pixels, NaiveMispredict, label)
		}
	}
	ctx.ComputeCycles(cal.SliceOverheadCycles, label+"-overhead")
}

// dmaRows transfers `rows` consecutive image rows (rows*stride bytes,
// contiguous in main memory) into the LS, split into <=16 KB commands. The
// optimized variant batches them as one DMA list (one queue slot); the
// naive variant issues individual gets.
func dmaRows(ctx *spe.Context, lsa ls.Addr, ea mainmem.Addr, rows, stride int, tag int, v Variant) error {
	if stride > mfc.MaxTransfer {
		return fmt.Errorf("marvel: row stride %d exceeds one DMA command", stride)
	}
	rowsPerCmd := mfc.MaxTransfer / stride
	total := rows
	if v == Optimized {
		// GetList copies the list into its command, so it is built on the
		// stack; only a list longer than the buffer moves to the heap.
		var buf [16]mfc.ListElement
		list := buf[:0]
		off := 0
		for total > 0 {
			n := rowsPerCmd
			if n > total {
				n = total
			}
			list = append(list, mfc.ListElement{EA: ea + mainmem.Addr(off), Size: uint32(n * stride)})
			off += n * stride
			total -= n
		}
		return ctx.GetList(lsa, list, tag)
	}
	off := 0
	for total > 0 {
		n := rowsPerCmd
		if n > total {
			n = total
		}
		if err := ctx.Get(lsa+ls.Addr(off), ea+mainmem.Addr(off), uint32(n*stride), tag); err != nil {
			return err
		}
		off += n * stride
		total -= n
	}
	return nil
}

// planRange plans halo'd slices for payload rows [y0, y1) of an h-row
// image: like img.PlanSlices over the partition, but with halos clamped
// at the *image* boundary, so a window operator behaves identically
// whether the partition covers the whole image or one band of a
// data-parallel split.
func planRange(y0, y1, h, maxRows, halo, granularity int) ([]img.Slice, error) {
	if y0 < 0 || y1 > h || y0 >= y1 {
		return nil, fmt.Errorf("marvel: bad payload range [%d,%d) of %d", y0, y1, h)
	}
	rel, err := img.PlanSlices(y1-y0, maxRows, halo, granularity)
	if err != nil {
		return nil, err
	}
	for i := range rel {
		s := &rel[i]
		s.Y0 += y0
		s.Y1 += y0
		s.HaloTop = halo
		if s.Y0-halo < 0 {
			s.HaloTop = s.Y0
		}
		s.HaloBottom = halo
		if s.Y1+halo > h {
			s.HaloBottom = h - s.Y1
		}
	}
	return rel, nil
}

// sliceBudget is the maximum transferred rows one slice may occupy given
// the kernel's free local store after header allocation: each buffered
// row costs its pixel stride plus the kernel's per-row scratch, the
// optimized variant double-buffers, and a fixed reserve covers the
// output vector plus alignment slack. Shared between the simulated
// kernel and the real-execution seam (ExecPlan) so both always compute
// identical slice plans.
func sliceBudget(free uint32, id KernelID, v Variant, w, stride int) int {
	perRow := stride + kernelOf(id).scratchRows*w
	fixed := outBytes(id) + 64
	return int(free-fixed)/(v.buffers()*perRow) - 1
}

// ExtractKernelSpec builds the SPE program for one extraction kernel: the
// Listing-1 dispatcher around a function that DMAs the header, plans
// halo'd slices against its local-store budget, streams the image through
// one (naive) or two (optimized) buffers, runs the real incremental
// feature computation, and DMAs the result back — the finalized feature
// vector for OpRun, the raw accumulator words for OpRunPartial. The memo
// serves the feature arithmetic from its kernel layer when the bands the
// DMA delivered are proven equal to a cached frame's rows (kernelmemo.go);
// otherwise, and on a cold memo, the kernel computes inline. nil means
// SharedArtifacts().
func ExtractKernelSpec(id KernelID, v Variant, memo *ArtifactCache) core.KernelSpec {
	memo = cmp.Or(memo, SharedArtifacts())
	g := kernelOf(id)
	labels := &traceLabelTable[id]
	fn := func(ctx *spe.Context, wrapper mainmem.Addr, partial bool) uint32 {
		st := ctx.Store()
		hdrLS, err := st.Alloc(exHdrBytes, 16)
		if err != nil {
			return resErr
		}
		if err := ctx.Get(hdrLS, wrapper, exHdrBytes, 0); err != nil {
			return resErr
		}
		ctx.WaitTag(0)
		var hdrWords [exHdrBytes / 4]uint32
		hdr := core.DecodeUint32s(hdrWords[:], st.Bytes(hdrLS, exHdrBytes))
		w, h, stride, pixEA := int(hdr[0]), int(hdr[1]), int(hdr[2]), mainmem.Addr(hdr[3])
		y0, y1 := int(hdr[4]), int(hdr[5])
		if w <= 0 || h <= 0 || stride < 3*w || y0 < 0 || y1 > h || y0 >= y1 {
			return resErr
		}

		// Slice plan against the remaining local store.
		oBytes := outBytes(id)
		budget := sliceBudget(st.Free(), id, v, w, stride)
		slices, err := planRange(y0, y1, h, budget, g.halo, g.granularity)
		if err != nil {
			return resErr
		}
		maxRows := 0
		for _, s := range slices {
			if r := s.TransferRows(); r > maxRows {
				maxRows = r
			}
		}
		var bufs [2]ls.Addr
		for i := 0; i < v.buffers(); i++ {
			if bufs[i], err = st.Alloc(uint32(maxRows*stride), 16); err != nil {
				return resErr
			}
			if g.scratchRows > 0 {
				// bins/gray scratch
				if _, err = st.Alloc(uint32(maxRows*w*g.scratchRows), 16); err != nil {
					return resErr
				}
			}
		}
		outLS, err := st.Alloc(oBytes, 16)
		if err != nil {
			return resErr
		}

		var run kernelRun
		run.start(memo, id, partial, w, h, stride, slices)
		fetch := func(i, tag int) error {
			s := slices[i]
			return dmaRows(ctx, bufs[tag], pixEA+mainmem.Addr(s.TransferY0()*stride),
				s.TransferRows(), stride, tag, v)
		}
		process := func(i, tag int) {
			s := slices[i]
			run.add(st.Bytes(bufs[tag], uint32(s.TransferRows()*stride)))
			chargeExtract(ctx, id, v, float64(s.PayloadRows()*w))
		}
		if v == Optimized {
			// Double buffering: fetch slice i+1 while computing slice i.
			if err := fetch(0, 0); err != nil {
				return resErr
			}
			for i := range slices {
				cur := i % 2
				if i+1 < len(slices) {
					if err := fetch(i+1, 1-cur); err != nil {
						return resErr
					}
				}
				ctx.WaitTag(cur)
				process(i, cur)
			}
		} else {
			for i := range slices {
				if err := fetch(i, 0); err != nil {
					return resErr
				}
				ctx.WaitTag(0)
				process(i, 0)
			}
		}

		out, err := run.output()
		if err != nil {
			return resErr
		}
		if partial {
			ctx.ComputeScalar(float64(len(out.raw))*3, labels.emitRaw)
			core.PutUint32s(st.Bytes(outLS, uint32(len(out.raw)*4)), out.raw)
		} else {
			ctx.ComputeScalar(float64(len(out.vec))*12, labels.finalize)
			core.PutFloat32s(st.Bytes(outLS, uint32(len(out.vec)*4)), out.vec)
		}
		if err := ctx.Put(outLS, wrapper+mainmem.Addr(extractOutOff()), oBytes, 1); err != nil {
			return resErr
		}
		ctx.WaitTag(1)
		return resOK
	}
	return core.KernelSpec{
		Name:      fmt.Sprintf("%s-%s", id, v),
		CodeBytes: g.CodeBytes,
		Mode:      core.Polling,
		Functions: map[core.Opcode]core.KernelFunc{
			OpRun: func(ctx *spe.Context, wrapper mainmem.Addr) uint32 {
				return fn(ctx, wrapper, false)
			},
			OpRunPartial: func(ctx *spe.Context, wrapper mainmem.Addr) uint32 {
				return fn(ctx, wrapper, true)
			},
		},
	}
}
