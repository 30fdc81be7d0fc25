package marvel

import (
	"sync"
	"sync/atomic"

	"cellport/internal/cost"
	"cellport/internal/img"
	"cellport/internal/workcache"
)

// ArtifactCache memoizes the workload artifacts that are bit-identical
// across the points of an experiment sweep, in three layers: corpus
// frames, model libraries per seed, and the output of every simulated
// kernel invocation (the kernel memo: kernelmemo.go for extraction,
// detectmemo.go for detection).
// Concurrent sweep workers share one in-flight computation per key via
// the workcache singleflight.
//
// A frame entry holds the synthesized pixels and, from the first Reference
// or validated ported run that needs them, the frame's host reference
// features, so a ported run without Validate never pays for host
// extraction. Frames are keyed per frame, not per workload: batches 1..k
// together synthesize and extract k frames, not k(k+1)/2. References are not cached; each Reference folds
// its virtual-time charges and concept detection over the cached frames.
// A warm cache also registers each frame by geometry, so an extraction
// kernel whose bands equal a frame's rows proves its input by comparison
// and is memoized under that frame (kernelmemo.go).
//
// All returned values are shared across callers and goroutines and MUST
// be treated as immutable: images and model sets are only read (scanned,
// copied into simulated memory, or compared against by the kernel memo),
// feature vectors are only compared against, and kernel outputs are only
// copied into the local store.
//
// A cache lives as long as the object: nothing is ever evicted. The
// cache-off path is a cold cache (NewColdArtifactCache), not a nil one:
// every exported entry that takes a cache reads nil as SharedArtifacts().
type ArtifactCache struct {
	frames  workcache.Cache[frameKey, *frame]
	models  workcache.Cache[uint64, *ModelSet]
	kernels workcache.Cache[kernelKey, kernelOut]
	// detects and known are the kernel memo's detection entries and the
	// models they recognize (detectmemo.go).
	detects workcache.Cache[detectKey, float64]
	known   knownModels
	// knownFr holds the corpus frames a proven extraction run may match
	// (kernelmemo.go).
	knownFr knownFrames

	// cold disables the kernel memo (NewColdArtifactCache).
	cold bool
}

// frameKey identifies one corpus frame: its geometry and synthesis seed
// (img.CorpusSeed of the workload seed and the frame index). Features are
// host-independent, so no host appears.
type frameKey struct {
	W, H int
	Seed uint64
}

// frameKeyOf returns the key of frame i of workload w.
func frameKeyOf(w Workload, i int) frameKey {
	return frameKey{W: w.W, H: w.H, Seed: img.CorpusSeed(w.Seed, i)}
}

// frame is one corpus frame's entry: its pixels, its host reference
// feature vectors by KernelID, each extracted once, by the first caller
// that needs it, and the kernel memo's prefetch skip index.
type frame struct {
	im   *img.RGB
	host [numExtract]hostFeature
	// prefetched marks, by Variant and KernelID, the whole-frame OpRun
	// outputs a run already listed for prefetch (kernelmemo.go).
	prefetched [Optimized + 1][numExtract]atomic.Bool
}

// hostFeature is one kernel's host reference vector of a frame.
type hostFeature struct {
	once  sync.Once
	vec   []float32
	ready atomic.Bool // vec is set
}

// feature returns kernel id's host reference vector of the frame.
func (f *frame) feature(id KernelID) []float32 {
	h := &f.host[id]
	h.once.Do(func() {
		h.vec = kernelOf(id).reference(f.im)
		h.ready.Store(true)
	})
	return h.vec
}

// features returns the frame's four host reference vectors.
func (f *frame) features() ImageResult {
	var r ImageResult
	for _, id := range ExtractKernels {
		*kernelOf(id).feature(&r) = f.feature(id)
	}
	return r
}

// sharedArtifacts is the process-wide cache used when a caller supplies
// none. Repeated sweeps within one process (successive paperbench
// experiments, repeated benchmark iterations) reuse its entries.
var sharedArtifacts ArtifactCache

// SharedArtifacts returns the process-wide artifact cache.
func SharedArtifacts() *ArtifactCache { return &sharedArtifacts }

// NewArtifactCache returns an empty private cache, for callers that want
// sharing within one sweep but isolation from the rest of the process.
func NewArtifactCache() *ArtifactCache { return &ArtifactCache{} }

// NewColdArtifactCache returns a private cache for a cold-path run
// (paperbench -nocache, cache-sensitivity tests): frames and models are
// shared within this one cache object, while every simulated kernel
// computes inline, so the run stays an oracle for the kernel memo.
func NewColdArtifactCache() *ArtifactCache { return &ArtifactCache{cold: true} }

// frame returns corpus frame i of workload w, synthesizing it on first use.
func (c *ArtifactCache) frame(w Workload, i int) *frame {
	k := frameKeyOf(w, i)
	f, _ := c.frames.Do(k, func() (*frame, error) {
		f := &frame{im: img.Synthesize(k.Seed, w.W, w.H)}
		if !c.cold {
			c.knownFr.add(f, w.Images)
		}
		return f, nil
	})
	return f
}

// framesOf returns the workload's cached frame entries.
func (c *ArtifactCache) framesOf(w Workload) []*frame {
	frames := make([]*frame, w.Images)
	for i := range frames {
		frames[i] = c.frame(w, i)
	}
	return frames
}

// newFrames returns private frame entries over freshly generated images.
func newFrames(w Workload) []*frame {
	images := w.Generate()
	frames := make([]*frame, len(images))
	for i, im := range images {
		frames[i] = &frame{im: im}
	}
	return frames
}

// Images returns the workload's frames, shared and read-only.
func (c *ArtifactCache) Images(w Workload) []*img.RGB {
	images := make([]*img.RGB, w.Images)
	for i := range images {
		images[i] = c.frame(w, i).im
	}
	return images
}

// ModelSet returns the synthetic model library for seed, shared and
// read-only.
func (c *ArtifactCache) ModelSet(seed uint64) (*ModelSet, error) {
	return c.models.Do(seed, func() (*ModelSet, error) {
		ms, err := NewModelSet(seed)
		if err == nil && !c.cold {
			c.known.add(ms)
		}
		return ms, err
	})
}

// Reference returns the sequential reference run of workload w under the
// host cost model, folded over the cached model set and frames. The
// result is private to the caller; its feature vectors are shared.
func (c *ArtifactCache) Reference(host *cost.Model, w Workload) (*ReferenceResult, error) {
	ms, err := c.ModelSet(w.Seed)
	if err != nil {
		return nil, err
	}
	return runReference(host, w, ms, func(i int) ImageResult { return c.frame(w, i).features() }), nil
}

// Stats reports cumulative (hits, misses) over the frame and model layers.
func (c *ArtifactCache) Stats() (hits, misses uint64) {
	fh, fm := c.frames.Stats()
	mh, mm := c.models.Stats()
	return fh + mh, fm + mm
}

// KernelStats reports cumulative (hits, misses) of the kernel memo. Misses
// equal the number of distinct (kernel, frame, slice plan) inputs proven,
// so they are deterministic for a given set of runs at any parallelism;
// a run that leaves the proof folds inline and counts in neither.
func (c *ArtifactCache) KernelStats() (hits, misses uint64) {
	return c.kernels.Stats()
}

// DetectStats reports cumulative (hits, misses) of the kernel memo's
// detection entries. They are kept apart from KernelStats so the
// extraction memo's hit ratio reads the same with detection memoized.
func (c *ArtifactCache) DetectStats() (hits, misses uint64) {
	return c.detects.Stats()
}
