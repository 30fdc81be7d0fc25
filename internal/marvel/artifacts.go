package marvel

import (
	"cellport/internal/cost"
	"cellport/internal/img"
	"cellport/internal/workcache"
)

// ArtifactCache memoizes the workload artifacts that are bit-identical
// across the points of an experiment sweep: the generated image set, the
// synthetic model library (train + encode + float32-rounded decode), the
// host reference features of every corpus frame, the sequential reference
// run, and the functional output of every simulated extraction kernel
// invocation (the kernel memo, kernelmemo.go). A Fig7-style grid of
// spes × scenarios × variants computes each artifact exactly once;
// concurrent sweep workers (experiments.RunIndexed) share one in-flight
// computation per key via the workcache singleflight.
//
// The frame layer is keyed per frame, not per workload: a batch-k
// workload holds corpus frames 0..k-1, so the references of batches
// 1..k together extract k frames, not k(k+1)/2. It stores host feature
// vectors only; each reference run still folds its own virtual-time
// charges and concept detection over them.
//
// All returned values are shared across callers and goroutines and MUST
// be treated as immutable: images are only read (the ported preprocessing
// copies rows into simulated memory, the reference extractors only scan
// pixels), model sets are only read (placement copies the encodings into
// simulated memory), reference results and their feature vectors are only
// compared against, and kernel outputs are only copied into the local
// store.
//
// A nil *ArtifactCache is valid and means "no caching": every accessor
// falls back to computing a private artifact (Reference runs the inline
// RunReference oracle) and every simulated kernel computes inline, which
// is the isolation path for calibration runs and cache-sensitivity tests.
type ArtifactCache struct {
	images  workcache.Cache[Workload, []*img.RGB]
	models  workcache.Cache[uint64, *ModelSet]
	frames  workcache.Cache[frameKey, ImageResult]
	refs    workcache.Cache[refKey, *ReferenceResult]
	kernels workcache.Cache[kernelKey, kernelOut]

	// cold disables the kernel memo (NewColdArtifactCache).
	cold bool
}

// refKey identifies a reference run: the cost model's name plus the full
// workload parameters (Images, W, H, Seed). The model set is derived from
// the workload seed, so it does not appear separately in the key.
type refKey struct {
	Host string
	W    Workload
}

// frameKey identifies one corpus frame's host reference features: its
// geometry and synthesis seed (img.CorpusSeed of the workload seed and
// the frame index). Features are host-independent, so no host appears.
type frameKey struct {
	W, H int
	Seed uint64
}

// sharedArtifacts is the process-wide cache used when a config neither
// disables caching nor supplies its own instance.
var sharedArtifacts ArtifactCache

// SharedArtifacts returns the process-wide artifact cache. Repeated
// sweeps within one process (successive paperbench experiments, repeated
// benchmark iterations) reuse its entries.
func SharedArtifacts() *ArtifactCache { return &sharedArtifacts }

// NewArtifactCache returns an empty private cache, for callers that want
// sharing within one sweep but isolation from the rest of the process.
func NewArtifactCache() *ArtifactCache { return &ArtifactCache{} }

// NewColdArtifactCache returns a private cache for a cold-path run that
// needs one cache object to thread through its calibration (the serving
// experiments under paperbench -nocache): images, models and references
// are shared within the run, while every simulated kernel computes inline
// as under a nil cache, so the run stays an oracle for the kernel memo.
func NewColdArtifactCache() *ArtifactCache { return &ArtifactCache{cold: true} }

// Images returns the workload's generated image set, shared and read-only.
func (c *ArtifactCache) Images(w Workload) []*img.RGB {
	if c == nil {
		return w.Generate()
	}
	images, _ := c.images.Do(w, func() ([]*img.RGB, error) {
		return w.Generate(), nil
	})
	return images
}

// ModelSet returns the synthetic model library for seed, shared and
// read-only.
func (c *ArtifactCache) ModelSet(seed uint64) (*ModelSet, error) {
	if c == nil {
		return NewModelSet(seed)
	}
	return c.models.Do(seed, func() (*ModelSet, error) {
		return NewModelSet(seed)
	})
}

// Reference returns the sequential reference run of workload w under the
// host cost model, shared and read-only. The model set, image set and
// per-frame features are resolved through the same cache, so a cold
// Reference call on one worker warms all four layers for every other
// sweep point, and a batch-k workload extracts only the frames no earlier
// workload of the same geometry and seed did.
func (c *ArtifactCache) Reference(host *cost.Model, w Workload) (*ReferenceResult, error) {
	if c == nil {
		ms, err := NewModelSet(w.Seed)
		if err != nil {
			return nil, err
		}
		return RunReference(host, w, ms), nil
	}
	return c.refs.Do(refKey{Host: host.Name, W: w}, func() (*ReferenceResult, error) {
		ms, err := c.ModelSet(w.Seed)
		if err != nil {
			return nil, err
		}
		images := c.Images(w)
		return runReference(host, w, ms, func(i int) ImageResult {
			f, _ := c.frames.Do(frameKey{W: w.W, H: w.H, Seed: img.CorpusSeed(w.Seed, i)}, func() (ImageResult, error) {
				return hostFeatures(images[i]), nil
			})
			return f
		}), nil
	})
}

// Stats reports cumulative (hits, misses) over the image, model, frame
// and reference layers; KernelStats counts the kernel memo.
func (c *ArtifactCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	for _, s := range []func() (uint64, uint64){c.images.Stats, c.models.Stats, c.frames.Stats, c.refs.Stats} {
		h, m := s()
		hits += h
		misses += m
	}
	return hits, misses
}

// KernelStats reports cumulative (hits, misses) of the kernel memo. Misses
// equal the number of distinct kernel inputs simulated, so they are
// deterministic for a given set of runs at any parallelism.
func (c *ArtifactCache) KernelStats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.kernels.Stats()
}

// Flush drops all cached artifacts and memoized kernel outputs
// (cold-path calibration, tests).
func (c *ArtifactCache) Flush() {
	if c == nil {
		return
	}
	c.images.Flush()
	c.models.Flush()
	c.frames.Flush()
	c.refs.Flush()
	c.kernels.Flush()
}
