// Package marvel implements the paper's case study (§5): a MARVEL-like
// multimedia analysis engine — image preprocessing, four visual feature
// extractors and SVM concept detection — in two builds:
//
//   - the sequential reference application (the "original C++" analog),
//     runnable under the Desktop, Laptop and PPE cost models with the
//     §3.2 profiler attached, and
//   - the Cell port produced by the paper's strategy: the same pipeline
//     with the five kernels of §5.2 detached behind SPEInterface stubs
//     and executed on simulated SPEs with sliced DMA, in the naive
//     (§5.3) and optimized (Table 1) variants, under the three §5.5
//     scheduling scenarios.
//
// Feature values are computed for real in both builds and must agree
// exactly; virtual time comes from the cost models plus the simulated
// communication fabric.
package marvel

import (
	"errors"
	"fmt"

	"cellport/internal/core"
	"cellport/internal/img"
	"cellport/internal/svm"
)

// KernelID identifies one of the five §5.2 kernels.
type KernelID int

// The five kernels, in the paper's listing order.
const (
	KCH KernelID = iota // color histogram extraction
	KCC                 // color correlogram extraction
	KTX                 // texture extraction
	KEH                 // edge histogram extraction
	KCD                 // concept detection (all four features)
	numKernels
)

// KernelIDs lists all kernels in order.
var KernelIDs = []KernelID{KCH, KCC, KTX, KEH, KCD}

func (k KernelID) String() string {
	switch k {
	case KCH:
		return "CHExtract"
	case KCC:
		return "CCExtract"
	case KTX:
		return "TXExtract"
	case KEH:
		return "EHExtract"
	case KCD:
		return "ConceptDet"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Workload describes an experiment input: n synthetic images of the
// paper's 352×240 frame size by default.
type Workload struct {
	Images int
	W, H   int
	Seed   uint64
}

// ErrEmptyWorkload is returned by Workload.Check, and so by RunPorted,
// when the workload has no images: the per-image averages (PerImage,
// KernelTime) would be meaningless and the schedules have nothing to
// execute.
var ErrEmptyWorkload = errors.New("marvel: workload has no images")

// Check reports a workload no run can execute: no images (wrapping
// ErrEmptyWorkload) or a frame without pixels.
func (w Workload) Check() error {
	if w.Images <= 0 {
		return fmt.Errorf("%w (Workload.Images = %d)", ErrEmptyWorkload, w.Images)
	}
	if w.W <= 0 || w.H <= 0 {
		return fmt.Errorf("marvel: invalid frame %dx%d", w.W, w.H)
	}
	return nil
}

// DefaultWorkload returns the paper's configuration for n images.
func DefaultWorkload(n int) Workload {
	return Workload{Images: n, W: 352, H: 240, Seed: 20070710}
}

// Generate materializes the workload's images.
func (w Workload) Generate() []*img.RGB {
	return img.Corpus(w.Seed, w.Images, w.W, w.H)
}

// CompressedImageBytes is the on-disk size charged per image read (a
// JPEG-ish frame); DecodeOpsPerPixel the decode cost.
const (
	CompressedImageBytes = 30 * 1024
	DecodeOpsPerPixel    = 12.0
	// ModelFileBytes is the on-disk size of the precomputed concept model
	// library read during the one-time preprocessing (§5.2 measures this
	// one-time overhead at ~60% of single-image PPE runtime).
	ModelFileBytes = 4_800_000
	ModelParseOps  = 2_000_000
)

// Feature dimensions and §5.5 support-vector counts per feature model.
const (
	DimCH = 166
	DimCC = 166
	DimEH = 64
	DimTX = 10

	NumSVCH = 186
	NumSVCC = 225
	NumSVEH = 210
	NumSVTX = 255
)

// ModelSet holds the four precomputed concept models, decoded back from
// their flat float32 encoding, so reference detection sees exactly the
// rounded data the SPE kernel streams. Beside each model it keeps that
// encoding as the big-endian bytes PlaceModel copies into simulated main
// memory, so placing a model never re-encodes it.
type ModelSet struct {
	CH, CC, EH, TX *svm.Model
	images         [4][]byte // by score slot
}

// NewModelSet builds the deterministic synthetic model library with the
// paper's support-vector counts.
func NewModelSet(seed uint64) (*ModelSet, error) {
	ms := &ModelSet{}
	build := func(slot int, name string, n, dim int) (*svm.Model, error) {
		enc, err := svm.Encode(svm.Synthetic(name, seed+uint64(slot)+1, n, dim, 4.0))
		if err != nil {
			return nil, err
		}
		ms.images[slot] = make([]byte, 4*len(enc))
		core.PutFloat32s(ms.images[slot], enc)
		return svm.Decode(name, enc)
	}
	var err error
	if ms.CH, err = build(0, "concept-ch", NumSVCH, DimCH); err != nil {
		return nil, err
	}
	if ms.CC, err = build(1, "concept-cc", NumSVCC, DimCC); err != nil {
		return nil, err
	}
	if ms.EH, err = build(2, "concept-eh", NumSVEH, DimEH); err != nil {
		return nil, err
	}
	if ms.TX, err = build(3, "concept-tx", NumSVTX, DimTX); err != nil {
		return nil, err
	}
	return ms, nil
}

// bySlot returns the models in score-slot order, the library's own order.
func (ms *ModelSet) bySlot() [4]*svm.Model { return [4]*svm.Model{ms.CH, ms.CC, ms.EH, ms.TX} }

// Decision evaluates a feature vector against extraction kernel id's
// concept model.
func (ms *ModelSet) Decision(id KernelID, feature []float32) float64 {
	return ms.bySlot()[kernelOf(id).score].Decision(feature)
}

// ImageResult carries the real outputs computed for one image.
type ImageResult struct {
	CH, CC, EH, TX []float32
	// Scores holds the four decision values (CH, CC, EH, TX concepts).
	Scores [4]float64
}

// Put stores extraction kernel id's feature vector and concept score.
func (r *ImageResult) Put(id KernelID, feature []float32, score float64) {
	k := kernelOf(id)
	*k.feature(r) = feature
	r.Scores[k.score] = score
}

// Detect runs the four concept detections on extracted features.
func (ms *ModelSet) Detect(r *ImageResult) {
	for _, id := range ExtractKernels {
		k := kernelOf(id)
		r.Scores[k.score] = ms.Decision(id, *k.feature(r))
	}
}

// MarshalText renders kernel IDs by name in JSON map keys.
func (k KernelID) MarshalText() ([]byte, error) { return []byte(k.String()), nil }
