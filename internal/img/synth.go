package img

// Synthetic image generation. The paper's experiments use 352×240 frames
// from a news-video corpus we do not have; feature-extraction cost depends
// only on dimensions, and correctness testing needs content variety (flat
// regions, gradients, edges, texture) rather than semantics, so seeded
// synthetic scenes preserve everything the experiments measure.

// prng is a small deterministic xorshift64* generator so images are
// reproducible across Go releases (math/rand's stream is not guaranteed).
type prng struct{ s uint64 }

func newPRNG(seed uint64) *prng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &prng{s: seed}
}

func (p *prng) next() uint64 {
	p.s ^= p.s >> 12
	p.s ^= p.s << 25
	p.s ^= p.s >> 27
	return p.s * 0x2545F4914F6CDD1D
}

// intn returns a value in [0, n), or 0 when n <= 0 (a frame narrower or
// shorter than the scene's divisors). It draws once either way, so the
// draws after it do not depend on n.
func (p *prng) intn(n int) int { return int(p.next() % uint64(max(n, 1))) }

// byteVal returns a value in [0, 256).
func (p *prng) byteVal() byte { return byte(p.next()) }

// Synthesize renders a deterministic w×h test scene for the given seed:
// a vertical sky gradient, a textured ground band, several solid
// rectangles and discs (strong edges and dominant colors), and mild pixel
// noise (exercises every histogram path).
func Synthesize(seed uint64, w, h int) *RGB {
	rng := newPRNG(seed)
	im := New(w, h)
	// Sky gradient: two random anchor colors interpolated by row.
	top := [3]int{int(rng.byteVal()), int(rng.byteVal()), int(rng.byteVal())}
	bot := [3]int{int(rng.byteVal()), int(rng.byteVal()), int(rng.byteVal())}
	horizon := h/2 + rng.intn(h/4+1)
	for y := 0; y < h; y++ {
		var c [3]byte
		if y < horizon {
			t := y * 256 / horizon
			for k := 0; k < 3; k++ {
				c[k] = byte(top[k] + (bot[k]-top[k])*t/256)
			}
		} else {
			// Ground: checkerboard texture of two colors.
			for k := 0; k < 3; k++ {
				c[k] = byte((top[k] + bot[k]) / 2)
			}
		}
		for x := 0; x < w; x++ {
			px := c
			if y >= horizon {
				if ((x/8)+(y/8))%2 == 0 {
					px[0] = byte(int(px[0]) * 3 / 4)
					px[1] = byte(int(px[1]) * 3 / 4)
					px[2] = byte(int(px[2]) * 3 / 4)
				}
			}
			im.Set(x, y, px[0], px[1], px[2])
		}
	}
	// Solid rectangles.
	for i := 0; i < 4+rng.intn(4); i++ {
		x0, y0 := rng.intn(w), rng.intn(h)
		rw, rh := 4+rng.intn(w/3), 4+rng.intn(h/3)
		r, g, b := rng.byteVal(), rng.byteVal(), rng.byteVal()
		for y := y0; y < y0+rh && y < h; y++ {
			for x := x0; x < x0+rw && x < w; x++ {
				im.Set(x, y, r, g, b)
			}
		}
	}
	// Discs.
	for i := 0; i < 2+rng.intn(3); i++ {
		cx, cy := rng.intn(w), rng.intn(h)
		rad := 3 + rng.intn(h/6+1)
		r, g, b := rng.byteVal(), rng.byteVal(), rng.byteVal()
		for y := cy - rad; y <= cy+rad; y++ {
			if y < 0 || y >= h {
				continue
			}
			for x := cx - rad; x <= cx+rad; x++ {
				if x < 0 || x >= w {
					continue
				}
				dx, dy := x-cx, y-cy
				if dx*dx+dy*dy <= rad*rad {
					im.Set(x, y, r, g, b)
				}
			}
		}
	}
	// Mild noise on a subset of pixels.
	for i := 0; i < w*h/16; i++ {
		x, y := rng.intn(w), rng.intn(h)
		r, g, b := im.At(x, y)
		im.Set(x, y, jitter(r, rng), jitter(g, rng), jitter(b, rng))
	}
	return im
}

func jitter(v byte, rng *prng) byte {
	d := rng.intn(17) - 8
	n := int(v) + d
	if n < 0 {
		n = 0
	}
	if n > 255 {
		n = 255
	}
	return byte(n)
}

// CorpusSeed derives corpus image i's synthesis seed from the corpus
// seed. Exposed so a consumer that regenerates single frames on demand
// (the real-execution backend's preprocessing stage) produces exactly
// the Corpus images.
func CorpusSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9E3779B9
}

// Corpus generates n distinct deterministic images of the given size.
func Corpus(seed uint64, n, w, h int) []*RGB {
	out := make([]*RGB, n)
	for i := range out {
		out[i] = Synthesize(CorpusSeed(seed, i), w, h)
	}
	return out
}
