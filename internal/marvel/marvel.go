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

// numExtract counts the extraction kernels, KCH through KEH.
const numExtract = int(KCD)

// KernelIDs lists all kernels in order.
var KernelIDs = []KernelID{KCH, KCC, KTX, KEH, KCD}

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

// ModelSet holds the four precomputed concept models by score slot,
// decoded back from their flat float32 encoding, so reference detection
// sees exactly the rounded data the SPE kernel streams. Beside each model
// it keeps that encoding as the big-endian bytes PlaceModel copies into
// simulated main memory, so placing a model never re-encodes it.
type ModelSet struct {
	slots [numExtract]struct {
		model *svm.Model
		enc   []byte
	}
}

// NewModelSet builds the deterministic synthetic model library with the
// paper's support-vector counts, one model per extraction kernel's row.
func NewModelSet(seed uint64) (*ModelSet, error) {
	ms := &ModelSet{}
	for _, id := range ExtractKernels {
		k := kernelOf(id)
		enc, err := svm.Encode(svm.Synthetic(k.model, seed+uint64(k.score)+1, k.numSV, k.dim, 4.0))
		if err != nil {
			return nil, err
		}
		slot := &ms.slots[k.score]
		slot.enc = make([]byte, 4*len(enc))
		core.PutFloat32s(slot.enc, enc)
		if slot.model, err = svm.Decode(k.model, enc); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// Decision evaluates a feature vector against extraction kernel id's
// concept model.
func (ms *ModelSet) Decision(id KernelID, feature []float32) float64 {
	return ms.slots[kernelOf(id).score].model.Decision(feature)
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
