package marvel

import (
	"bytes"
	"hash/maphash"
	"sync"

	"cellport/internal/core"
	"cellport/internal/svm"
)

// The detection memo: the kernel memo's entry for concept detection. A
// detection kernel charges its SPU time from the model's shape
// (detectNomOps), never from values, yet it also evaluates the real SVM
// decision. Verified serving and calibration grids detect the same
// features against the same few models over and over, so the decision is
// memoized too. The model is the large input: the kernel proves the
// streamed model is a known one by comparing each DMA'd piece with one
// shared copy of its encoding, and keys the decision by that model and a
// content sum of the small input, the feature. Every DMA, compute charge
// and event still happens, as with the extraction memo.

// knownModel is one concept model the detection memo can recognize: the
// unpadded encoding (header, coefficients, support vectors) PlaceModel
// copies into main memory, shared with the ModelSet that owns it. Its
// address is its identity in detectKey.
type knownModel struct {
	enc []byte
}

// svBytes returns the encoding of support-vector rows [base, base+rows)
// of a model of the given shape.
func (m *knownModel) svBytes(numSV, dim, base, rows int) []byte {
	off := hdrBytes + 4*numSV + 4*dim*base
	return m.enc[off : off+4*dim*rows]
}

// detectKey identifies one detection's decision value: the known model
// the stream matched byte for byte, and two independently seeded 64-bit
// maphash sums of the feature bytes. The seeds are drawn once per
// process, and the memo never leaves the process, so nothing depends on
// the sums' values.
type detectKey struct {
	model *knownModel
	sum   [2]uint64
}

// keySeeds seed the detection key's two feature sums.
var keySeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// knownModels is the detection memo's model registry, filled as the
// cache builds model sets: known models by their 16-byte header, one
// entry per distinct encoding.
type knownModels struct {
	mu       sync.RWMutex
	byHeader map[[hdrBytes]byte][]*knownModel
}

// add registers every model of ms, skipping encodings already known.
func (k *knownModels) add(ms *ModelSet) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.byHeader == nil {
		k.byHeader = make(map[[hdrBytes]byte][]*knownModel)
	}
next:
	for i := range ms.slots {
		enc := ms.slots[i].enc
		hd := [hdrBytes]byte(enc)
		for _, m := range k.byHeader[hd] {
			if bytes.Equal(m.enc, enc) {
				continue next
			}
		}
		k.byHeader[hd] = append(k.byHeader[hd], &knownModel{enc: enc})
	}
}

// match returns the known model whose header and coefficients equal the
// streamed ones, or nil.
func (k *knownModels) match(hdr, coeffs []byte) *knownModel {
	k.mu.RLock()
	defer k.mu.RUnlock()
	for _, m := range k.byHeader[[hdrBytes]byte(hdr)] {
		// An equal header gives m the streamed shape, so the slice is in
		// bounds.
		if bytes.Equal(m.enc[hdrBytes:hdrBytes+len(coeffs)], coeffs) {
			return m
		}
	}
	return nil
}

// detectRun folds one detection invocation's support-vector chunks into
// its decision value. While every streamed byte equals a known model's
// encoding it only compares (the memo path); the first chunk that differs,
// an unknown model, or a cold cache folds inline: decode and evaluate, the
// oracle path. The local-store views it holds stay valid for the
// invocation: nothing else is written to the feature and coefficient
// buffers.
type detectRun struct {
	memo                  *ArtifactCache
	model                 *knownModel // nil on the inline path
	dim, numSV, chunkRows int
	bias, gamma           float64
	feat, coeffs          []byte // local-store views

	// Inline fold state, set up by startInline.
	sum                   float64
	kern                  svm.Kernel
	scratch               *[]float32
	feature, coeffv, rows []float32
}

// start begins an invocation over the model header mh (already checked
// against the shape), the coefficient and feature bytes in the local
// store. A cold cache or an unknown model starts inline.
func (r *detectRun) start(memo *ArtifactCache, mh [hdrBytes / 4]float32, hdr, coeffs, feat []byte, dim, numSV, chunkRows int) {
	*r = detectRun{
		memo: memo, dim: dim, numSV: numSV, chunkRows: chunkRows,
		bias: float64(mh[2]), gamma: float64(mh[3]),
		feat: feat, coeffs: coeffs,
	}
	if !memo.cold {
		r.model = memo.known.match(hdr, coeffs)
	}
	if r.model == nil {
		r.startInline()
	}
}

// startInline decodes the feature and the coefficients into pooled
// scratch and starts the decision sum at the bias.
func (r *detectRun) startInline() {
	r.kern = svm.Linear{}
	if r.gamma > 0 {
		r.kern = svm.RBF{Gamma: r.gamma}
	}
	r.scratch = getDetectScratch(r.dim + r.numSV + r.chunkRows*r.dim)
	s := *r.scratch
	r.feature = core.DecodeFloat32s(s, r.feat)
	r.coeffv = core.DecodeFloat32s(s[r.dim:], r.coeffs)
	r.rows = s[r.dim+r.numSV:]
	r.sum = r.bias
}

// add takes chunk i, whose support-vector rows sit in data as the DMA
// delivered them.
func (r *detectRun) add(i int, data []byte) {
	base := i * r.chunkRows
	if r.model != nil {
		if bytes.Equal(data, r.model.svBytes(r.numSV, r.dim, base, len(data)/(4*r.dim))) {
			return
		}
		r.refold(i)
	}
	r.fold(data, base)
}

// refold leaves the memo path: it starts inline and folds chunks [0, n)
// from the known model's encoding, which every one of them equalled.
func (r *detectRun) refold(n int) {
	m := r.model
	r.model = nil
	r.startInline()
	for i := 0; i < n; i++ {
		base := i * r.chunkRows
		r.fold(m.svBytes(r.numSV, r.dim, base, min(r.chunkRows, r.numSV-base)), base)
	}
}

// fold adds the support-vector rows encoded in data, starting at row
// base, to the decision sum.
func (r *detectRun) fold(data []byte, base int) {
	svs := core.DecodeFloat32s(r.rows, data)
	for j := 0; j*r.dim < len(svs); j++ {
		r.sum += float64(r.coeffv[base+j]) * r.kern.Eval(svs[j*r.dim:(j+1)*r.dim], r.feature)
	}
}

// decision returns the invocation's decision value after its last chunk:
// the inline sum, or the memo's value for the known model and the
// feature, computed once from the model's encoding on a miss. As with the
// extraction memo, a computation that panicked in another goroutine hands
// its waiters an error, which the caller must not ignore.
func (r *detectRun) decision() (float64, error) {
	if r.model == nil {
		return r.sum, nil
	}
	key := detectKey{model: r.model, sum: [2]uint64{
		maphash.Bytes(keySeeds[0], r.feat), maphash.Bytes(keySeeds[1], r.feat),
	}}
	nChunks := (r.numSV + r.chunkRows - 1) / r.chunkRows
	return r.memo.detects.Do(key, func() (float64, error) {
		r.refold(nChunks)
		return r.sum, nil
	})
}

// release returns the inline path's scratch to its pool.
func (r *detectRun) release() {
	if r.scratch != nil {
		detectScratch.Put(r.scratch)
		r.scratch = nil
	}
}
