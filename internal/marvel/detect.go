package marvel

import (
	"cmp"
	"fmt"
	"sync"

	"cellport/internal/core"
	"cellport/internal/ls"
	"cellport/internal/mainmem"
	"cellport/internal/spe"
	"cellport/internal/svm"
)

// PlacedModel is an encoded SVM laid out in simulated main memory for SPE
// streaming:
//
//	hdr    16 B              [numSV f32][dim f32][bias f32][gamma f32]
//	coeffs pad16(numSV*4) B  float32 coefficients
//	svs    numSV*dim*4 B     support vectors, row-major (+16 B tail pad
//	                         so the last chunk's padded DMA stays in
//	                         bounds)
type PlacedModel struct {
	EA       mainmem.Addr
	NumSV    int
	Dim      int
	svOff    uint32
	total    uint32
	refModel *svm.Model
}

// PlaceModel writes the model in ms's score slot into main memory,
// copying the encoding the ModelSet keeps beside it.
func PlaceModel(mem *mainmem.Memory, ms *ModelSet, slot int) (*PlacedModel, error) {
	m, enc := ms.slots[slot].model, ms.slots[slot].enc
	n, dim := len(m.SupportVectors), m.Dim()
	coeffBytes := pad16(uint32(n) * 4)
	svBytes := uint32(n*dim) * 4
	total := hdrBytes + coeffBytes + svBytes + 16
	ea, err := mem.Alloc(total, mainmem.AlignCacheLine)
	if err != nil {
		return nil, fmt.Errorf("marvel: placing model %q: %w", m.Concept, err)
	}
	copy(mem.Bytes(ea, hdrBytes), enc)
	copy(mem.Bytes(ea+hdrBytes, uint32(n)*4), enc[hdrBytes:])
	copy(mem.Bytes(ea+hdrBytes+mainmem.Addr(coeffBytes), svBytes), enc[hdrBytes+4*n:])
	return &PlacedModel{
		EA: ea, NumSV: n, Dim: dim,
		svOff: hdrBytes + coeffBytes, total: total, refModel: m,
	}, nil
}

// Bytes returns the placed size (for PPE MemStream accounting).
func (p *PlacedModel) Bytes() uint32 { return p.total }

// Free releases the model block.
func (p *PlacedModel) Free(mem *mainmem.Memory) error { return mem.Free(p.EA) }

// svChunkRows returns how many support-vector rows one DMA chunk holds:
// the largest count whose byte size is <=16 KB and a multiple of 16 (so
// successive chunk EAs stay quadword-aligned).
func svChunkRows(dim int) int {
	rowBytes := dim * 4
	k := 16384 / rowBytes
	for k > 1 && (k*rowBytes)%16 != 0 {
		k--
	}
	if k < 1 {
		k = 1
	}
	return k
}

// detectScratch recycles the detection kernel's decode scratch across
// invocations; calibration workers run kernels concurrently.
var detectScratch sync.Pool // holds *[]float32

// getDetectScratch returns pooled scratch of at least n float32s.
func getDetectScratch(n int) *[]float32 {
	p, _ := detectScratch.Get().(*[]float32)
	if p == nil || cap(*p) < n {
		b := make([]float32, n)
		return &b
	}
	*p = (*p)[:n]
	return p
}

// DetectKernelSpec builds the concept-detection SPE kernel: it DMAs the
// feature vector, then streams the model's coefficient block and support
// vectors from main memory in <=16 KB chunks (double-buffered in the
// optimized variant), charging SPU time per chunk from the model's shape
// and reporting the real SVM decision the reference computes. The memo
// serves the decision from its detection entries (detectmemo.go): while
// the streamed header, coefficients and chunks equal a known model's
// encoding byte for byte, the kernel only compares them, and it looks the
// decision up by that model and the feature's bytes. The first chunk that
// differs, an unknown model or a cold memo evaluates inline. nil means
// SharedArtifacts().
func DetectKernelSpec(v Variant, memo *ArtifactCache) core.KernelSpec {
	memo = cmp.Or(memo, SharedArtifacts())
	cal := &kernels[KCD]
	fn := func(ctx *spe.Context, wrapper mainmem.Addr) uint32 {
		st := ctx.Store()
		hdrLS, err := st.Alloc(hdrBytes, 16)
		if err != nil {
			return resErr
		}
		if err := ctx.Get(hdrLS, wrapper, hdrBytes, 0); err != nil {
			return resErr
		}
		ctx.WaitTag(0)
		var hdrWords [hdrBytes / 4]uint32
		hdr := core.DecodeUint32s(hdrWords[:], st.Bytes(hdrLS, hdrBytes))
		dim, numSV := int(hdr[0]), int(hdr[1])
		modelEA := mainmem.Addr(hdr[2])
		if dim <= 0 || numSV <= 0 {
			return resErr
		}

		// Feature vector.
		featBytes := pad16(uint32(dim) * 4)
		featLS, err := st.Alloc(featBytes, 16)
		if err != nil {
			return resErr
		}
		if err := ctx.Get(featLS, wrapper+mainmem.Addr(detectFeatureOff()), featBytes, 0); err != nil {
			return resErr
		}
		// Model header + coefficients (small; fetched together with the
		// feature under tag 0).
		mHdrLS, err := st.Alloc(hdrBytes, 16)
		if err != nil {
			return resErr
		}
		coeffBytes := pad16(uint32(numSV) * 4)
		coeffLS, err := st.Alloc(coeffBytes, 16)
		if err != nil {
			return resErr
		}
		if err := ctx.Get(mHdrLS, modelEA, hdrBytes, 0); err != nil {
			return resErr
		}
		if err := ctx.Get(coeffLS, modelEA+hdrBytes, coeffBytes, 0); err != nil {
			return resErr
		}
		ctx.WaitTag(0)

		var mhWords [hdrBytes / 4]float32
		mhBytes := st.Bytes(mHdrLS, hdrBytes)
		mh := core.DecodeFloat32s(mhWords[:], mhBytes)
		if int(mh[0]) != numSV || int(mh[1]) != dim {
			return resErr
		}
		// Stream support vectors in chunks.
		chunkRows := svChunkRows(dim)
		rowBytes := dim * 4
		var run detectRun
		run.start(memo, mhWords, mhBytes, st.Bytes(coeffLS, uint32(numSV)*4),
			st.Bytes(featLS, uint32(dim)*4), dim, numSV, chunkRows)
		defer run.release()
		chunkBytes := uint32(chunkRows * rowBytes)
		var bufs [2]ls.Addr
		for i := 0; i < v.buffers(); i++ {
			if bufs[i], err = st.Alloc(pad16(chunkBytes), 16); err != nil {
				return resErr
			}
		}
		nChunks := (numSV + chunkRows - 1) / chunkRows
		svEA := modelEA + hdrBytes + mainmem.Addr(coeffBytes)
		chunkOf := func(i int) (ea mainmem.Addr, bytes uint32, rows int) {
			start := i * chunkRows
			rows = chunkRows
			if start+rows > numSV {
				rows = numSV - start
			}
			return svEA + mainmem.Addr(start*rowBytes), pad16(uint32(rows * rowBytes)), rows
		}
		fetch := func(i, tag int) error {
			ea, bytes, _ := chunkOf(i)
			return ctx.Get(bufs[tag], ea, bytes, tag)
		}
		process := func(i, tag int) {
			_, _, rows := chunkOf(i)
			run.add(i, st.Bytes(bufs[tag], uint32(rows*rowBytes)))
			nomOps := detectNomOps(rows, dim)
			switch v {
			case Optimized:
				ctx.ComputeSIMD(nomOps, cal.OptWidth, cal.OptEff, "detect")
			default:
				ctx.ComputeCycles(nomOps/(ctx.Model().ScalarIPC*cal.NaiveEff), "detect")
				ctx.ComputeBranches(float64(rows)*3, NaiveMispredict, "detect")
			}
			ctx.ComputeCycles(cal.SliceOverheadCycles, "detect-overhead")
		}
		if v == Optimized {
			if err := fetch(0, 0); err != nil {
				return resErr
			}
			for i := 0; i < nChunks; i++ {
				cur := i % 2
				if i+1 < nChunks {
					if err := fetch(i+1, 1-cur); err != nil {
						return resErr
					}
				}
				ctx.WaitTag(cur)
				process(i, cur)
			}
		} else {
			for i := 0; i < nChunks; i++ {
				if err := fetch(i, 0); err != nil {
					return resErr
				}
				ctx.WaitTag(0)
				process(i, 0)
			}
		}
		sum, err := run.decision()
		if err != nil {
			return resErr
		}

		// Report the decision: score field + classification bit.
		scoreLS, err := st.Alloc(scoreBytes, 16)
		if err != nil {
			return resErr
		}
		sb := st.Bytes(scoreLS, scoreBytes)
		core.PutFloat32s(sb[:4], []float32{float32(sum)})
		class := uint32(0)
		if sum > 0 {
			class = 1
		}
		core.PutUint32s(sb[4:8], []uint32{class})
		if err := ctx.Put(scoreLS, wrapper+mainmem.Addr(detectScoreOff(dim)), scoreBytes, 1); err != nil {
			return resErr
		}
		ctx.WaitTag(1)
		return resOK
	}
	return core.KernelSpec{
		Name:      fmt.Sprintf("%s-%s", KCD, v),
		CodeBytes: cal.CodeBytes,
		Mode:      core.Polling,
		Functions: map[core.Opcode]core.KernelFunc{OpRun: fn},
	}
}
