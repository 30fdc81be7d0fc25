package cellport_test

import (
	"bytes"
	"fmt"
	"log"

	"cellport"
	"cellport/internal/img"
	"cellport/internal/ls"
	"cellport/internal/mainmem"
)

// The §3.4 frame: 1600×1200 RGB, far larger than a local store.
const (
	filterWidth  = 1600
	filterHeight = 1200
)

// sepia is the pointwise color conversion, shared by host and SPE.
func sepia(r, g, b byte) (byte, byte, byte) {
	clamp := func(v int) byte {
		if v > 255 {
			return 255
		}
		return byte(v)
	}
	ri, gi, bi := int(r), int(g), int(b)
	return clamp((ri*393 + gi*769 + bi*189) >> 10),
		clamp((ri*349 + gi*686 + bi*168) >> 10),
		clamp((ri*272 + gi*534 + bi*131) >> 10)
}

// blurRows computes the 3×3 box blur for payload rows [py0, py1) of a
// band (which includes halo rows where available) into dst. Borders
// replicate — clamping to the band is clamping to the image exactly when
// the band edge is the image edge.
func blurRows(band *img.RGB, py0, py1 int, dst *img.RGB, dy0 int) {
	at := func(x, y, c int) int {
		if x < 0 {
			x = 0
		}
		if x > band.W-1 {
			x = band.W - 1
		}
		if y < 0 {
			y = 0
		}
		if y > band.H-1 {
			y = band.H - 1
		}
		return int(band.Pix[y*band.Stride+3*x+c])
	}
	for y := py0; y < py1; y++ {
		for x := 0; x < band.W; x++ {
			for c := 0; c < 3; c++ {
				sum := 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						sum += at(x+dx, y+dy, c)
					}
				}
				dst.Pix[(dy0+y-py0)*dst.Stride+3*x+c] = byte(sum / 9)
			}
		}
	}
}

// filterKernel builds an SPE kernel running the selected filter over
// sliced DMA. The wrapper header carries [W][H][stride][srcEA]; the
// destination EA follows in the second header word group.
func filterKernel(name string, halo int, apply func(band *img.RGB, py0, py1 int, out *img.RGB)) cellport.KernelSpec {
	return cellport.KernelSpec{
		Name:      name,
		CodeBytes: 16 * 1024,
		Functions: map[cellport.Opcode]cellport.KernelFunc{
			1: func(ctx *cellport.SPEContext, wrapper cellport.Addr) uint32 {
				st := ctx.Store()
				hdr := st.MustAlloc(32, 16)
				if ctx.Get(hdr, wrapper, 32, 0) != nil {
					return 1
				}
				ctx.WaitTag(0)
				hv := core32(st.Bytes(hdr, 32))
				w, h, stride := int(hv[0]), int(hv[1]), int(hv[2])
				srcEA, dstEA := cellport.Addr(hv[3]), cellport.Addr(hv[4])

				// Two buffers (in + out) per slice must fit the LS.
				budget := int(st.Free())/(2*stride) - 2
				slices, err := img.PlanSlices(h, budget, halo, 1)
				if err != nil {
					return 1
				}
				maxRows := 0
				for _, s := range slices {
					if r := s.TransferRows(); r > maxRows {
						maxRows = r
					}
				}
				inBuf := st.MustAlloc(uint32(maxRows*stride), 16)
				outBuf := st.MustAlloc(uint32((maxRows)*stride), 16)
				for _, s := range slices {
					if err := dmaRows(ctx, inBuf, srcEA+cellport.Addr(s.TransferY0()*stride), s.TransferRows(), stride, 0); err != nil {
						return 1
					}
					ctx.WaitTag(0)
					band := img.Wrap(st.Bytes(inBuf, uint32(s.TransferRows()*stride)), w, s.TransferRows(), stride)
					out := img.Wrap(st.Bytes(outBuf, uint32(s.PayloadRows()*stride)), w, s.PayloadRows(), stride)
					apply(band, s.HaloTop, s.HaloTop+s.PayloadRows(), out)
					ctx.ComputeSIMD(float64(s.PayloadRows()*w)*30, 16, 0.5, name)
					if err := putRows(ctx, outBuf, dstEA+cellport.Addr(s.Y0*stride), s.PayloadRows(), stride, 1); err != nil {
						return 1
					}
					ctx.WaitTag(1)
				}
				return 0
			},
		},
	}
}

func core32(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = uint32(b[i*4])<<24 | uint32(b[i*4+1])<<16 | uint32(b[i*4+2])<<8 | uint32(b[i*4+3])
	}
	return out
}

func dmaRows(ctx *cellport.SPEContext, lsa ls.Addr, ea cellport.Addr, rows, stride, tag int) error {
	per := 16384 / stride
	for off := 0; rows > 0; {
		n := per
		if n > rows {
			n = rows
		}
		if err := ctx.Get(lsa+ls.Addr(off), ea+cellport.Addr(off), uint32(n*stride), tag); err != nil {
			return err
		}
		off += n * stride
		rows -= n
	}
	return nil
}

func putRows(ctx *cellport.SPEContext, lsa ls.Addr, ea cellport.Addr, rows, stride, tag int) error {
	per := 16384 / stride
	for off := 0; rows > 0; {
		n := per
		if n > rows {
			n = rows
		}
		if err := ctx.Put(lsa+ls.Addr(off), ea+cellport.Addr(off), uint32(n*stride), tag); err != nil {
			return err
		}
		off += n * stride
		rows -= n
	}
	return nil
}

// Example_imageFilter is the §3.4 worked example: an image filter over a
// 1600×1200 RGB frame that does not fit in the 256 KB SPE local store, so
// the DMA must be done in slices.
//
// Two filters demonstrate the two border cases the paper calls out:
//
//   - a color-conversion filter (sepia), where the new pixel depends only
//     on the old pixel — slicing needs no special care; and
//   - a 3×3 box-blur convolution, where "the data slices or the
//     processing must take care of the new border conditions at the data
//     slice edges" — solved with one halo row per side.
//
// Both SPE results are verified byte-for-byte against a host computation.
func Example_imageFilter() {
	cfg := cellport.DefaultConfig()
	cfg.MemorySize = 64 << 20
	m := cellport.NewMachine(cfg)

	src := img.Synthesize(1234, filterWidth, filterHeight)
	stride := src.Stride
	fmt.Printf("image: %dx%d, %d KB — local store is %d KB, so DMA is sliced\n",
		filterWidth, filterHeight, src.Bytes()/1024, ls.Size/1024)

	// Host references.
	wantSepia := src.Clone()
	for y := 0; y < filterHeight; y++ {
		for x := 0; x < filterWidth; x++ {
			sr, sg, sb := sepia(src.At(x, y))
			wantSepia.Set(x, y, sr, sg, sb)
		}
	}
	wantBlur := img.New(filterWidth, filterHeight)
	blurRows(src, 0, filterHeight, wantBlur, 0)

	sepiaSpec := filterKernel("sepia", 0, func(band *img.RGB, py0, py1 int, out *img.RGB) {
		for y := py0; y < py1; y++ {
			for x := 0; x < band.W; x++ {
				sr, sg, sb := sepia(band.At(x, y))
				out.Set(x, y-py0, sr, sg, sb)
			}
		}
	})
	blurSpec := filterKernel("blur3x3", 1, func(band *img.RGB, py0, py1 int, out *img.RGB) {
		blurRows(band, py0, py1, out, 0)
	})

	_, err := m.RunMain("imagefilter", func(ctx *cellport.PPEContext) {
		mem := ctx.Memory()
		put := func(im *img.RGB) cellport.Addr {
			ea, err := mem.Alloc(uint32(im.Bytes()), mainmem.AlignCacheLine)
			if err != nil {
				log.Fatal(err)
			}
			copy(mem.Bytes(ea, uint32(im.Bytes())), im.Pix)
			return ea
		}
		srcEA := put(src)
		dstEA, err := mem.Alloc(uint32(src.Bytes()), mainmem.AlignCacheLine)
		if err != nil {
			log.Fatal(err)
		}

		for _, tc := range []struct {
			spec cellport.KernelSpec
			want *img.RGB
		}{{sepiaSpec, wantSepia}, {blurSpec, wantBlur}} {
			w, err := cellport.NewWrapper(mem, cellport.WrapperField{Name: "hdr", Size: 32})
			if err != nil {
				log.Fatal(err)
			}
			hb := w.Bytes("hdr")
			for i, v := range []uint32{filterWidth, filterHeight, uint32(stride), uint32(srcEA), uint32(dstEA)} {
				hb[i*4], hb[i*4+1], hb[i*4+2], hb[i*4+3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
			}
			iface, err := cellport.Open(ctx, 0, tc.spec)
			if err != nil {
				log.Fatal(err)
			}
			t0 := ctx.Now()
			if res, err := iface.SendAndWait(1, w.Addr()); err != nil || res != 0 {
				log.Fatalf("%s failed: res=%d err=%v", tc.spec.Name, res, err)
			}
			dt := ctx.Now().Sub(t0)
			got := mem.Bytes(dstEA, uint32(src.Bytes()))
			ok := bytes.Equal(got, tc.want.Pix)
			fmt.Printf("%-8s SPE time %10v   matches host: %v\n", tc.spec.Name, dt, ok)
			if !ok {
				log.Fatalf("%s output differs from host reference", tc.spec.Name)
			}
			if err := iface.Close(); err != nil {
				log.Fatal(err)
			}
			if err := w.Free(); err != nil {
				log.Fatal(err)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// image: 1600x1200, 5625 KB — local store is 256 KB, so DMA is sliced
	// sepia    SPE time  2.71145ms   matches host: true
	// blur3x3  SPE time  2.73445ms   matches host: true
}
