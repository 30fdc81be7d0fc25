package marvel

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"sync"

	"cellport/internal/img"
)

// The kernel memo: the third ArtifactCache layer. A simulated extraction
// kernel charges its SPU time from dimensions (chargeExtract), never from
// pixel values, yet it also computes real feature values so the port
// stays functional at all times. Calibration grids and verified serving
// re-run the same kernels on the same seeded frames many times over, so
// the arithmetic is memoized by the exact input the kernel saw: its local
// store bands, as the DMA delivered them, and the slice geometry it folded
// them with. Every DMA, compute charge and event still happens, so virtual
// time and EventCount cannot move; only the host arithmetic is shared.

// kernelKey identifies one extraction kernel invocation's functional
// output: the kernel, whether it emits raw accumulator words
// (OpRunPartial) or the finalized vector (OpRun), and two independently
// seeded 64-bit maphash sums over every slice's geometry and local-store
// band bytes. A corrupted DMA payload therefore changes the key. The
// seeds are drawn once per process, and the memo never leaves the
// process, so nothing depends on the sums' values. A run whose bands were
// proven equal to a cached frame's rows takes the same sums, computed
// once from those rows (frame.planSum), so proven and hashed runs share
// entries.
type kernelKey struct {
	id      KernelID
	partial bool
	sum     [2]uint64
}

// keySeeds seed the key's two sums.
var keySeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// kernelOut is one kernel invocation's output, shared and read-only: the
// finalized feature vector (OpRun) or the raw accumulator words
// (OpRunPartial).
type kernelOut struct {
	vec []float32
	raw []uint32
}

// kernelRun gathers one kernel invocation's bands and produces its
// output, on one of three paths:
//
//   - inline, on a cold cache: each band is folded into the accumulator
//     as it arrives (the oracle path);
//   - proven, while every band equals the rows of one known frame
//     (knownFrames): the run only compares, and its key is the frame's
//     cached sum for the plan, so a hit neither hashes nor copies and a
//     miss folds straight from the frame's rows;
//   - hashed, from the first band that matches no known frame or differs
//     from its frame: each band is hashed and copied, the equal prefix
//     first, from the frame's rows, and a miss folds the copies.
//
// The bands arrive in plan order, one per slice.
type kernelRun struct {
	id                KernelID
	partial           bool
	w, height, stride int
	slices            []img.Slice // the plan
	n                 int         // bands added

	acc Accumulator // inline path

	memo  *ArtifactCache // memo paths
	frame *frame         // proven path: bands [0, n) are its rows
	h     [2]maphash.Hash
	bands *[]byte // hashed path, from bandPool, returned by output
}

// bandPool recycles the hashed path's band copies: the local store
// overwrites its buffers as the kernel streams, so a miss needs its own
// copy of every band, but no copy outlives its invocation's output call.
var bandPool sync.Pool

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
	switch {
	case r.memo == nil:
		foldBand(r.acc, band, s, r.w, r.stride)
	case r.bands != nil:
		r.hashBand(band, s)
	case r.n == 0:
		r.frame = r.memo.knownFr.match(frameGeom{r.w, r.height, r.stride}, s, band)
		if r.frame == nil {
			r.leave()
			r.hashBand(band, s)
		}
	case !bytes.Equal(band, r.frame.rows(s)):
		r.leave()
		r.hashBand(band, s)
	}
	r.n++
}

// leave drops a proven (or not yet started) run to the hashed path: it
// hashes and copies bands [0, n) from the frame's rows, which every one
// of them equalled, so the key is the one hashing the bands would give.
func (r *kernelRun) leave() {
	total := 0
	for _, s := range r.slices {
		total += s.TransferRows() * r.stride
	}
	for i := range r.h {
		r.h[i].SetSeed(keySeeds[i])
	}
	r.bands, _ = bandPool.Get().(*[]byte)
	if r.bands == nil || cap(*r.bands) < total {
		b := make([]byte, 0, total)
		r.bands = &b
	}
	*r.bands = (*r.bands)[:0]
	f := r.frame
	r.frame = nil
	for _, s := range r.slices[:r.n] {
		r.hashBand(f.rows(s), s)
	}
}

// hashBand adds slice s's band to the run's sums and copies it.
func (r *kernelRun) hashBand(band []byte, s img.Slice) {
	writeBand(&r.h, r.w, r.stride, s, band)
	*r.bands = append(*r.bands, band...)
}

// writeBand writes one slice's geometry words and band bytes to the key's
// two sums: the content a kernelKey is the sum of.
func writeBand(h *[2]maphash.Hash, w, stride int, s img.Slice, band []byte) {
	var g [5 * 4]byte
	for i, v := range []int{w, stride, s.TransferRows(), s.HaloTop, s.PayloadRows()} {
		binary.LittleEndian.PutUint32(g[4*i:], uint32(v))
	}
	for i := range h {
		h[i].Write(g[:])
		h[i].Write(band)
	}
}

// key is the memo key of the bands added so far. A proven run that has
// every band takes its frame's cached sum for the plan; one that stopped
// short leaves the proof, so the sum covers exactly its bands.
func (r *kernelRun) key() kernelKey {
	k := kernelKey{id: r.id, partial: r.partial}
	if r.frame != nil && r.n == len(r.slices) {
		k.sum = r.frame.planSum(r.slices)
		return k
	}
	if r.bands == nil {
		r.leave()
	}
	k.sum = [2]uint64{r.h[0].Sum64(), r.h[1].Sum64()}
	return k
}

// output returns the invocation's result: computed inline, found in the
// memo, or computed once, from the proven frame's rows or the copied
// bands, and stored. The computation itself never fails, but one that
// panicked in another goroutine (a prefetch helper) hands its waiters an
// error and no output, which the caller must not use.
func (r *kernelRun) output() (kernelOut, error) {
	if r.memo == nil {
		return finishAcc(r.acc, r.partial), nil
	}
	out, err := r.memo.kernels.Do(r.key(), func() (kernelOut, error) {
		acc := kernelOf(r.id).newAcc()
		off := 0
		for _, s := range r.slices[:r.n] {
			if f := r.frame; f != nil {
				foldBand(acc, f.rows(s), s, r.w, r.stride)
				continue
			}
			n := s.TransferRows() * r.stride
			foldBand(acc, (*r.bands)[off:off+n], s, r.w, r.stride)
			off += n
		}
		return finishAcc(acc, r.partial), nil
	})
	if r.bands != nil {
		bandPool.Put(r.bands)
		r.bands = nil
	}
	return out, err
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

// planSum returns the key sums of the frame's bands under the slice plan,
// as writeBand takes them, computing them on the plan's first request.
// The plan is kept, not copied: plans are never written after planning.
func (f *frame) planSum(plan []img.Slice) [2]uint64 {
	f.sumMu.Lock()
	defer f.sumMu.Unlock()
	for _, p := range f.sums {
		if slices.Equal(p.plan, plan) {
			return p.sum
		}
	}
	var h [2]maphash.Hash
	for i := range h {
		h[i].SetSeed(keySeeds[i])
	}
	for _, s := range plan {
		writeBand(&h, f.im.W, f.im.Stride, s, f.rows(s))
	}
	sum := [2]uint64{h[0].Sum64(), h[1].Sum64()}
	if f.sums == nil {
		// One whole-frame plan per kernel and variant at most.
		f.sums = make([]planSum, 0, numExtract*int(Optimized+1))
	}
	f.sums = append(f.sums, planSum{plan: plan, sum: sum})
	return sum
}

// planSum is one slice plan's key sums over a frame.
type planSum struct {
	plan []img.Slice
	sum  [2]uint64
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
// joins the in-flight computation. The key is the content either way,
// so who computes an entry changes nothing but the wall time.

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
