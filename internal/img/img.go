// Package img provides the image substrate for the MARVEL case study:
// interleaved RGB images with DMA-friendly row strides, the Smith–Chang
// style 166-bin HSV color quantization MARVEL's color features use
// ([18], §5.2), grayscale conversion, row slicing with halos for SPE
// processing (§3.4), and a deterministic synthetic image generator that
// replaces the paper's news-video image corpus.
package img

import "fmt"

// RGB is an 8-bit interleaved RGB image. Pix holds H rows of Stride bytes;
// a row's pixels occupy its first 3*W bytes. Stride is quadword-aligned so
// whole rows are DMA-able.
type RGB struct {
	W, H   int
	Stride int
	Pix    []byte
}

// StrideFor returns the quadword-aligned byte stride for a row of w RGB
// pixels.
func StrideFor(w int) int { return (3*w + 15) &^ 15 }

// New allocates a w×h image with aligned stride.
func New(w, h int) *RGB {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid dimensions %dx%d", w, h))
	}
	s := StrideFor(w)
	return &RGB{W: w, H: h, Stride: s, Pix: make([]byte, s*h)}
}

// Wrap views an existing byte buffer (e.g. an SPE local-store slice) as an
// image without copying. The buffer must hold h*stride bytes.
func Wrap(pix []byte, w, h, stride int) *RGB {
	if stride < 3*w {
		panic(fmt.Sprintf("img: stride %d < 3*%d", stride, w))
	}
	if len(pix) < h*stride {
		panic(fmt.Sprintf("img: buffer %d B < %d rows × %d B", len(pix), h, stride))
	}
	return &RGB{W: w, H: h, Stride: stride, Pix: pix}
}

// At returns the pixel at (x, y).
func (im *RGB) At(x, y int) (r, g, b byte) {
	i := y*im.Stride + 3*x
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set stores the pixel at (x, y).
func (im *RGB) Set(x, y int, r, g, b byte) {
	i := y*im.Stride + 3*x
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// Row returns the packed pixel bytes of row y (3*W bytes).
func (im *RGB) Row(y int) []byte {
	off := y * im.Stride
	return im.Pix[off : off+3*im.W]
}

// Bytes returns the total backing size in bytes.
func (im *RGB) Bytes() int { return im.H * im.Stride }

// Clone deep-copies the image.
func (im *RGB) Clone() *RGB {
	out := &RGB{W: im.W, H: im.H, Stride: im.Stride, Pix: make([]byte, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// Gray converts to 8-bit luma with the integer BT.601 weights
// (77R + 150G + 29B) >> 8, one row of W bytes per image row (stride W),
// into dst and returns it. dst is grown when it holds fewer than W×H
// bytes, so a caller that keeps its plane converts without allocating.
func (im *RGB) Gray(dst []byte) []byte {
	w, n := im.W, im.W*im.H
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	for y := 0; y < im.H; y++ {
		src := im.Pix[y*im.Stride : y*im.Stride+3*w]
		out := dst[y*w : y*w+w]
		for x := range out {
			p := src[3*x : 3*x+3 : 3*x+3]
			out[x] = byte((77*int(p[0]) + 150*int(p[1]) + 29*int(p[2])) >> 8)
		}
	}
	return dst
}
