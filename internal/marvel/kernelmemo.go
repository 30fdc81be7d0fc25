package marvel

import (
	"bytes"
	"sync"

	"cellport/internal/img"
)

// The kernel memo: the third ArtifactCache layer. A simulated extraction
// kernel charges its SPU time from dimensions (chargeExtract), never from
// pixel values, yet it also computes real feature values so the port
// stays functional at all times. Calibration grids and verified serving
// re-run the same kernels on the same seeded frames many times over, so
// the arithmetic is memoized for every run whose local store bands, as
// the DMA delivered them, are proven equal to a cached frame's rows. Every
// DMA, compute charge and event still happens, so virtual time and
// EventCount cannot move; only the host arithmetic is shared.

// kernelKey identifies one extraction kernel invocation's functional
// output: the kernel, whether it emits raw accumulator words
// (OpRunPartial) or the finalized vector (OpRun), the cached frame its
// bands were proven equal to, by identity, and its slice plan. Frames are
// de-duplicated per cache by frameKey and the memo is per cache, so the
// frame pointer names the pixels.
type kernelKey struct {
	id      KernelID
	partial bool
	frame   *frame
	plan    planID
}

// planID names a slice plan by its payload range and its first slice's
// payload rows. For a given kernel and frame height that fixes every
// slice and halo: planRange is the one planner (the kernel's, and
// ExecPlan's through planKernel), and it cuts [y0, y1) into slices of the
// first one's payload rows, the last taking the rest, with each halo the
// kernel's, clamped at the frame.
type planID struct{ y0, y1, step int }

// planOf returns the name of a non-empty slice plan.
func planOf(slices []img.Slice) planID {
	return planID{slices[0].Y0, slices[len(slices)-1].Y1, slices[0].PayloadRows()}
}

// kernelOut is one kernel invocation's output, shared and read-only: the
// finalized feature vector (OpRun) or the raw accumulator words
// (OpRunPartial).
type kernelOut struct {
	vec []float32
	raw []uint32
}

// kernelRun gathers one kernel invocation's bands and produces its
// output, on one of two paths:
//
//   - proven, while every band equals the rows of one known frame
//     (knownFrames): the run only compares, a hit neither folds nor
//     copies, and a miss folds straight from the frame's rows;
//   - inline, on a cold cache or from the first band that matches no
//     known frame or differs from its frame: each band is folded into
//     the accumulator as it arrives, the equal prefix first, from the
//     frame's rows (the oracle path). An inline run makes no lookup.
//
// The bands arrive in plan order, one per slice.
type kernelRun struct {
	id                KernelID
	partial           bool
	w, height, stride int
	slices            []img.Slice // the plan
	n                 int         // bands added

	acc Accumulator // inline path

	memo  *ArtifactCache // proven path
	frame *frame         // bands [0, n) are its rows
}

// start begins an invocation of kernel id over the planned slices of a
// w×height image with the given row stride. A cold memo selects the
// inline path; otherwise the first band picks the path.
func (r *kernelRun) start(memo *ArtifactCache, id KernelID, partial bool, w, height, stride int, slices []img.Slice) {
	*r = kernelRun{id: id, partial: partial, w: w, height: height, stride: stride, slices: slices}
	if memo.cold {
		r.acc = kernelOf(id).newAcc()
		return
	}
	r.memo = memo
}

// add takes the next slice's band as it sits in the local store.
func (r *kernelRun) add(band []byte) {
	s := r.slices[r.n]
	if r.memo != nil && !r.proves(band, s) {
		r.leave()
	}
	if r.memo == nil {
		foldBand(r.acc, band, s, r.w, r.stride)
	}
	r.n++
}

// proves reports whether band equals the proven frame's rows of slice s;
// the first band picks the frame.
func (r *kernelRun) proves(band []byte, s img.Slice) bool {
	if r.n == 0 {
		r.frame = r.memo.knownFr.match(frameGeom{r.w, r.height, r.stride}, s, band)
		return r.frame != nil
	}
	return bytes.Equal(band, r.frame.rows(s))
}

// leave drops a proven (or not yet started) run to the inline path: it
// folds bands [0, n) from the frame's rows, which every one of them
// equalled, so the accumulator is the one folding the bands gives.
func (r *kernelRun) leave() {
	r.acc = kernelOf(r.id).newAcc()
	for _, s := range r.slices[:r.n] {
		foldBand(r.acc, r.frame.rows(s), s, r.w, r.stride)
	}
	r.memo, r.frame = nil, nil
}

// key is the memo key of a proven run.
func (r *kernelRun) key() kernelKey {
	return kernelKey{id: r.id, partial: r.partial, frame: r.frame, plan: planOf(r.slices)}
}

// output returns the invocation's result after its plan's last band:
// computed inline, or found in the memo, computed once from the proven
// frame's rows and stored. The computation itself never fails, but one
// that panicked in another goroutine (a prefetch helper) hands its
// waiters an error and no output, which the caller must not use.
func (r *kernelRun) output() (kernelOut, error) {
	if r.memo == nil {
		return finishAcc(r.acc, r.partial), nil
	}
	return r.memo.kernels.Do(r.key(), func() (kernelOut, error) {
		acc := kernelOf(r.id).newAcc()
		for _, s := range r.slices {
			foldBand(acc, r.frame.rows(s), s, r.w, r.stride)
		}
		return finishAcc(acc, r.partial), nil
	})
}

// frameGeom is a pixel block's geometry, the registry key of known frames.
type frameGeom struct{ W, H, Stride int }

// knownFrames is the extraction memo's frame registry, filled as a warm
// cache synthesizes corpus frames: the frames a proven run may match, by
// geometry.
type knownFrames struct {
	mu     sync.RWMutex
	byGeom map[frameGeom][]*frame
}

// add registers f, one of a workload's n frames.
func (k *knownFrames) add(f *frame, n int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.byGeom == nil {
		k.byGeom = make(map[frameGeom][]*frame)
	}
	g := frameGeom{f.im.W, f.im.H, f.im.Stride}
	fs := k.byGeom[g]
	if fs == nil {
		fs = make([]*frame, 0, n)
	}
	k.byGeom[g] = append(fs, f)
}

// match returns the known frame of geometry g whose rows of slice s equal
// band, or nil.
func (k *knownFrames) match(g frameGeom, s img.Slice, band []byte) *frame {
	k.mu.RLock()
	defer k.mu.RUnlock()
	for _, f := range k.byGeom[g] {
		if bytes.Equal(f.rows(s), band) {
			return f
		}
	}
	return nil
}

// rows returns the frame's pixel rows slice s transfers, or nil if they
// lie outside the frame.
func (f *frame) rows(s img.Slice) []byte {
	y0, y1 := s.TransferY0(), s.TransferY1()
	if y0 < 0 || y1 > f.im.H || y0 > y1 {
		return nil
	}
	return f.im.Pix[y0*f.im.Stride : y1*f.im.Stride]
}

// foldBand folds slice s's payload rows of band into acc.
func foldBand(acc Accumulator, band []byte, s img.Slice, w, stride int) {
	acc.Process(img.Wrap(band, w, s.TransferRows(), stride), s.HaloTop, s.HaloTop+s.PayloadRows())
}

// finishAcc turns a complete accumulator into the kernel's output.
func finishAcc(acc Accumulator, partial bool) kernelOut {
	if partial {
		return kernelOut{raw: encodeRaw(acc)}
	}
	return kernelOut{vec: acc.Finalize()}
}

// Memo prefetch. A whole-frame OpRun's bands are rows of the frame
// exactly as the PPE decoded them into the pixel block (stride
// img.StrideFor, zero padding), sliced by the plan ExecPlan reproduces,
// so its memo entry can be computed from the cached frame before the
// simulation reaches it. RunPorted hands these computations to helper
// goroutines; the event loop's lookup of the same key then hits, or
// joins the in-flight computation. Both runs are proven on the frame
// and share its plan, so they take the same key, and who computes an
// entry changes nothing but the wall time.

// prefetchJobs lists the memo computations of the whole-frame OpRun
// invocations sched makes over workload w's frames, in the order the
// event loop reaches them (by image, then by sched.Launch), skipping
// every frame the skip index already holds. The index is a hint, never a
// memo key: a claimed frame whose entry is missing (a failed helper, a
// differing plan) only makes the event loop compute it inline. A cold
// cache has no memo to fill.
func (c *ArtifactCache) prefetchJobs(w Workload, sched Schedule, v Variant, frames []*frame) []func() error {
	if c.cold {
		return nil
	}
	var jobs []func() error
	var plans [numExtract][]img.Slice
	for _, f := range frames {
		for _, id := range sched.Launch {
			if !f.prefetched[v][id].CompareAndSwap(false, true) {
				continue
			}
			if plans[id] == nil {
				s, err := ExecPlan(id, v, w.W, w.H)
				if err != nil {
					continue // the kernel fails the same plan in the run
				}
				plans[id] = s
			}
			slices := plans[id]
			jobs = append(jobs, func() error {
				_, err := frameRun(c, id, f, slices).output()
				return err
			})
		}
	}
	return jobs
}

// frameRun gathers kernel id's whole-frame OpRun over frame f by the
// given slice plan on warm cache c. Its bands are the slices' transferred
// rows of the frame, the bytes the DMA delivers to the local store, so it
// starts proven on f.
func frameRun(c *ArtifactCache, id KernelID, f *frame, slices []img.Slice) *kernelRun {
	return &kernelRun{
		id: id, w: f.im.W, height: f.im.H, stride: f.im.Stride,
		slices: slices, n: len(slices), memo: c, frame: f,
	}
}
