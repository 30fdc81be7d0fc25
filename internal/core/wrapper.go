package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"cellport/internal/mainmem"
)

// Byte order of the simulated machine (the Cell is big-endian). Kernels
// and wrappers must agree; the helpers below keep both sides consistent.
var ByteOrder = binary.BigEndian

// WrapperField describes one member collected into a data wrapper.
type WrapperField struct {
	Name string
	Size uint32 // bytes
}

// Wrapper is an aligned main-memory block collecting the data an SPE
// kernel needs: the §3.3 "common data structure" whose address travels
// through the mailbox. Every field starts on a quadword boundary so the
// kernel can DMA any field independently; the whole block is allocated on
// a cache-line boundary.
type Wrapper struct {
	mem     *mainmem.Memory
	base    mainmem.Addr
	size    uint32
	offsets map[string]uint32
	sizes   map[string]uint32
	freed   bool
}

// NewWrapper lays out the fields (each padded to a multiple of 16 bytes)
// and allocates the block (the malloc_align analog).
func NewWrapper(mem *mainmem.Memory, fields ...WrapperField) (*Wrapper, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("core: wrapper with no fields")
	}
	w := &Wrapper{
		mem:     mem,
		offsets: make(map[string]uint32, len(fields)),
		sizes:   make(map[string]uint32, len(fields)),
	}
	var off uint32
	for _, f := range fields {
		if f.Size == 0 {
			return nil, fmt.Errorf("core: wrapper field %q has zero size", f.Name)
		}
		if _, dup := w.offsets[f.Name]; dup {
			return nil, fmt.Errorf("core: duplicate wrapper field %q", f.Name)
		}
		w.offsets[f.Name] = off
		w.sizes[f.Name] = f.Size
		off += (f.Size + 15) &^ 15
	}
	w.size = off
	base, err := mem.Alloc(off, mainmem.AlignCacheLine)
	if err != nil {
		return nil, fmt.Errorf("core: allocating %d-byte wrapper: %w", off, err)
	}
	w.base = base
	return w, nil
}

// Addr returns the wrapper's main-memory base address — the value passed
// through the mailbox to the kernel.
func (w *Wrapper) Addr() mainmem.Addr { return w.base }

// Size returns the wrapper size in bytes (a multiple of 16).
func (w *Wrapper) Size() uint32 { return w.size }

// FieldAddr returns the main-memory address of a field.
func (w *Wrapper) FieldAddr(name string) mainmem.Addr {
	off, ok := w.offsets[name]
	if !ok {
		panic(fmt.Sprintf("core: wrapper has no field %q", name))
	}
	return w.base + mainmem.Addr(off)
}

// FieldSize returns a field's declared size in bytes.
func (w *Wrapper) FieldSize(name string) uint32 {
	sz, ok := w.sizes[name]
	if !ok {
		panic(fmt.Sprintf("core: wrapper has no field %q", name))
	}
	return sz
}

// Bytes returns the mutable backing bytes of a field.
func (w *Wrapper) Bytes(name string) []byte {
	return w.mem.Bytes(w.FieldAddr(name), w.FieldSize(name))
}

// Uint32 loads the first word of a field.
func (w *Wrapper) Uint32(name string) uint32 { return ByteOrder.Uint32(w.Bytes(name)) }

// SetFloat32s stores a []float32 into a field (which must be large enough).
func (w *Wrapper) SetFloat32s(name string, vals []float32) {
	b := w.Bytes(name)
	if len(vals)*4 > len(b) {
		panic(fmt.Sprintf("core: field %q holds %d bytes, need %d", name, len(b), len(vals)*4))
	}
	PutFloat32s(b, vals)
}

// Float32s loads n float32 values from a field.
func (w *Wrapper) Float32s(name string, n int) []float32 {
	b := w.Bytes(name)
	if n*4 > len(b) {
		panic(fmt.Sprintf("core: field %q holds %d bytes, need %d", name, len(b), n*4))
	}
	return GetFloat32s(b[:n*4])
}

// Free releases the wrapper's memory (the free_align analog in
// Listing 4). Double frees are errors.
func (w *Wrapper) Free() error {
	if w.freed {
		return fmt.Errorf("core: wrapper double free at %#x", uint32(w.base))
	}
	w.freed = true
	return w.mem.Free(w.base)
}

// --- raw big-endian helpers shared by wrappers and kernels ---------------

// PutFloat32s encodes vals into b in machine byte order.
func PutFloat32s(b []byte, vals []float32) {
	for i, v := range vals {
		ByteOrder.PutUint32(b[i*4:], math.Float32bits(v))
	}
}

// GetFloat32s decodes len(b)/4 float32 values from b into a new slice.
func GetFloat32s(b []byte) []float32 { return DecodeFloat32s(make([]float32, len(b)/4), b) }

// DecodeFloat32s decodes len(b)/4 float32 values from b into dst, which
// must hold them, and returns dst[:len(b)/4]. Kernels decode into scratch
// they reuse, so a streamed chunk costs no allocation.
func DecodeFloat32s(dst []float32, b []byte) []float32 {
	out := dst[:len(b)/4]
	for i := range out {
		out[i] = math.Float32frombits(ByteOrder.Uint32(b[i*4:]))
	}
	return out
}

// PutUint32s encodes vals into b in machine byte order.
func PutUint32s(b []byte, vals []uint32) {
	for i, v := range vals {
		ByteOrder.PutUint32(b[i*4:], v)
	}
}

// GetUint32s decodes len(b)/4 uint32 values from b into a new slice.
func GetUint32s(b []byte) []uint32 { return DecodeUint32s(make([]uint32, len(b)/4), b) }

// DecodeUint32s decodes len(b)/4 uint32 values from b into dst, which must
// hold them, and returns dst[:len(b)/4].
func DecodeUint32s(dst []uint32, b []byte) []uint32 {
	out := dst[:len(b)/4]
	for i := range out {
		out[i] = ByteOrder.Uint32(b[i*4:])
	}
	return out
}
