package marvel

import (
	"cellport/internal/cost"
	"cellport/internal/profile"
	"cellport/internal/sim"
)

// ReferenceResult reports a sequential reference run (the original
// application on the Desktop, the Laptop, or the PPE).
type ReferenceResult struct {
	// Host names the cost model used.
	Host string
	// Total is end-to-end virtual time including the one-time overhead.
	Total sim.Duration
	// OneTime is the application-wide setup (model library load).
	OneTime sim.Duration
	// PreprocessPerImage is the average per-image read+decode time.
	PreprocessPerImage sim.Duration
	// KernelTime is the average per-image time of each kernel.
	KernelTime map[KernelID]sim.Duration
	// PerImage is the average per-image processing time (everything but
	// the one-time overhead).
	PerImage sim.Duration
	// Images holds the real per-image outputs (features and decisions).
	Images []ImageResult
	// Profile is the attached §3.2 profiler.
	Profile *profile.Profiler
}

// hostClock is the sequential run's virtual clock: a pure accumulator.
type hostClock struct{ now sim.Time }

func (c *hostClock) charge(d sim.Duration) { c.now = c.now.Add(d) }

// RunReference executes the sequential application under the given host
// model: the one-time model-library load, then per image the §5.1
// pipeline (read/decode, four feature extractions, concept detection).
// Feature values are computed for real; time comes from the calibrated
// cost model. It computes every frame inline and is the oracle for the
// ArtifactCache's per-frame layer.
func RunReference(host *cost.Model, w Workload, ms *ModelSet) *ReferenceResult {
	frames := newFrames(w)
	return runReference(host, w, ms, func(i int) ImageResult { return frames[i].features() })
}

// runReference folds the reference run's virtual-time charges and concept
// detection over frame(i), frame i's host features (the reference vectors
// of w.Generate()[i]), so an ArtifactCache can feed features shared across
// workloads instead of recomputing them. Host arithmetic is virtual-time
// free, so where it happens does not move any charge.
func runReference(host *cost.Model, w Workload, ms *ModelSet, frame func(i int) ImageResult) *ReferenceResult {
	clk := &hostClock{}
	prof := profile.New(func() sim.Time { return clk.now })
	res := &ReferenceResult{
		Host:       host.Name,
		KernelTime: make(map[KernelID]sim.Duration),
	}
	pixels := float64(w.W * w.H)

	prof.Enter("App", "main")

	// One-time overhead: load and parse the precomputed model library.
	prof.Enter("App", "loadModels")
	clk.charge(host.DiskRead(ModelFileBytes))
	clk.charge(host.ScalarOps(ModelParseOps))
	prof.Exit()
	res.OneTime = clk.now.Sub(0)

	for i := 0; i < w.Images; i++ {
		prof.Enter("Preprocess", "readImage")
		pre := clk.now
		clk.charge(host.DiskRead(CompressedImageBytes))
		clk.charge(host.ScalarOps(DecodeOpsPerPixel * pixels))
		res.PreprocessPerImage += clk.now.Sub(pre)
		prof.Exit()

		r := frame(i)
		ms.Detect(&r)
		for _, id := range KernelIDs {
			k := &kernels[id]
			prof.Enter(k.class, k.method)
			start := clk.now
			var nomOps float64
			if id == KCD {
				nomOps = detectNomOpsAll()
			} else {
				nomOps = k.NomOpsPerPixel * pixels
				clk.charge(host.Branches(k.NomBranchesPerPixel*pixels, -1))
			}
			clk.charge(host.ScalarOps(nomOps * k.HostOpsMult))
			res.KernelTime[id] += clk.now.Sub(start)
			prof.Exit()
		}
		res.Images = append(res.Images, r)
	}
	prof.Exit()

	res.Total = clk.now.Sub(0)
	n := sim.Duration(w.Images)
	if w.Images > 0 {
		for id := range res.KernelTime {
			res.KernelTime[id] /= n
		}
		res.PreprocessPerImage /= n
		res.PerImage = (res.Total - res.OneTime) / n
	}
	res.Profile = prof
	return res
}

// KernelCoverage returns each kernel's share of the per-image processing
// time (the §5.2 coverage numbers).
func (r *ReferenceResult) KernelCoverage() map[KernelID]float64 {
	out := make(map[KernelID]float64, len(r.KernelTime))
	if r.PerImage <= 0 {
		return out
	}
	for id, t := range r.KernelTime {
		out[id] = t.Seconds() / r.PerImage.Seconds()
	}
	return out
}

// ProcessingCoverage returns the fraction of total runtime spent in
// feature extraction + concept detection (the 87% / 96% numbers of §5.2).
func (r *ReferenceResult) ProcessingCoverage() float64 {
	if r.Total <= 0 {
		return 0
	}
	var k sim.Duration
	for _, t := range r.KernelTime {
		k += t
	}
	return float64(k) * float64(len(r.Images)) / float64(r.Total)
}
