package marvel

import (
	"encoding/binary"
	"hash/maphash"
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
// process, so nothing depends on the sums' values.
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
// output. On a cold cache it folds each band into the accumulator as the
// band arrives (the inline oracle path); otherwise it hashes and copies
// each band, and runs the same accumulator over the copies only when the
// key misses.
type kernelRun struct {
	id        KernelID
	partial   bool
	w, stride int

	acc Accumulator // inline path

	memo   *ArtifactCache // memo path
	h      [2]maphash.Hash
	bands  *[]byte // from bandPool, returned by output
	slices []img.Slice
}

// bandPool recycles the memo path's band copies: the local store
// overwrites its buffers as the kernel streams, so a miss needs its own
// copy of every band, but no copy outlives its invocation's output call.
var bandPool sync.Pool

// newKernelRun starts an invocation of kernel id over the planned slices
// of a w-pixel-wide image with the given row stride. A cold memo selects
// the inline path.
func newKernelRun(memo *ArtifactCache, id KernelID, partial bool, w, stride int, slices []img.Slice) *kernelRun {
	r := &kernelRun{id: id, partial: partial, w: w, stride: stride}
	if memo.cold {
		r.acc = kernelOf(id).newAcc()
		return r
	}
	total := 0
	for _, s := range slices {
		total += s.TransferRows() * stride
	}
	r.memo = memo
	for i := range r.h {
		r.h[i].SetSeed(keySeeds[i])
	}
	r.bands, _ = bandPool.Get().(*[]byte)
	if r.bands == nil || cap(*r.bands) < total {
		b := make([]byte, 0, total)
		r.bands = &b
	}
	*r.bands = (*r.bands)[:0]
	r.slices = make([]img.Slice, 0, len(slices))
	return r
}

// add takes slice s's band as it sits in the local store.
func (r *kernelRun) add(band []byte, s img.Slice) {
	if r.memo == nil {
		foldBand(r.acc, band, s, r.w, r.stride)
		return
	}
	var g [5 * 4]byte
	for i, v := range []int{r.w, r.stride, s.TransferRows(), s.HaloTop, s.PayloadRows()} {
		binary.LittleEndian.PutUint32(g[4*i:], uint32(v))
	}
	for i := range r.h {
		r.h[i].Write(g[:])
		r.h[i].Write(band)
	}
	*r.bands = append(*r.bands, band...)
	r.slices = append(r.slices, s)
}

// key is the memo key of the bands added so far.
func (r *kernelRun) key() kernelKey {
	return kernelKey{id: r.id, partial: r.partial, sum: [2]uint64{r.h[0].Sum64(), r.h[1].Sum64()}}
}

// output returns the invocation's result: computed inline, found in the
// memo, or computed once over the copied bands and stored. The
// computation itself never fails, but one that panicked in another
// goroutine (a prefetch helper) hands its waiters an error and no
// output, which the caller must not use.
func (r *kernelRun) output() (kernelOut, error) {
	if r.memo == nil {
		return finishAcc(r.acc, r.partial), nil
	}
	out, err := r.memo.kernels.Do(r.key(), func() (kernelOut, error) {
		acc := kernelOf(r.id).newAcc()
		bands, off := *r.bands, 0
		for _, s := range r.slices {
			n := s.TransferRows() * r.stride
			foldBand(acc, bands[off:off+n], s, r.w, r.stride)
			off += n
		}
		return finishAcc(acc, r.partial), nil
	})
	bandPool.Put(r.bands)
	r.bands = nil
	return out, err
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
			im, slices := f.im, plans[id]
			jobs = append(jobs, func() error {
				_, err := frameRun(c, id, im, slices).output()
				return err
			})
		}
	}
	return jobs
}

// frameRun gathers kernel id's whole-frame OpRun over im by the given
// slice plan: each band is the slice's transferred rows of im.Pix, the
// bytes the DMA delivers to the local store.
func frameRun(c *ArtifactCache, id KernelID, im *img.RGB, slices []img.Slice) *kernelRun {
	r := newKernelRun(c, id, false, im.W, im.Stride, slices)
	for _, s := range slices {
		y0 := s.TransferY0()
		r.add(im.Pix[y0*im.Stride:(y0+s.TransferRows())*im.Stride], s)
	}
	return r
}
