package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"cellport/internal/mainmem"
)

// Property: for any field list, the wrapper layout keeps every field
// quadword-aligned, in declaration order, non-overlapping, and inside the
// allocation; freeing returns the memory.
func TestPropWrapperLayout(t *testing.T) {
	f := func(sizesRaw []uint16) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 20 {
			return true
		}
		mem := mainmem.New(4 << 20)
		var fields []WrapperField
		for i, s := range sizesRaw {
			fields = append(fields, WrapperField{
				Name: fmt.Sprintf("f%d", i),
				Size: uint32(s)%5000 + 1,
			})
		}
		w, err := NewWrapper(mem, fields...)
		if err != nil {
			return false
		}
		prevEnd := uint32(w.Addr())
		for _, fl := range fields {
			addr := uint32(w.FieldAddr(fl.Name))
			if addr%16 != 0 {
				return false
			}
			if addr < prevEnd {
				return false // overlap or disorder
			}
			if w.FieldSize(fl.Name) != fl.Size {
				return false
			}
			if addr+fl.Size > uint32(w.Addr())+w.size {
				return false
			}
			prevEnd = addr + fl.Size
		}
		if err := w.Free(); err != nil {
			return false
		}
		return mem.CheckLeaks() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: field bytes are disjoint — writing a marker through one field
// never shows through another.
func TestPropWrapperFieldIsolation(t *testing.T) {
	f := func(a, b uint8) bool {
		mem := newTestMemory()
		w, err := NewWrapper(mem,
			WrapperField{Name: "a", Size: uint32(a)%200 + 1},
			WrapperField{Name: "b", Size: uint32(b)%200 + 1},
		)
		if err != nil {
			return false
		}
		for i := range w.Bytes("a") {
			w.Bytes("a")[i] = 0xAA
		}
		for _, v := range w.Bytes("b") {
			if v != 0 {
				return false
			}
		}
		return w.Free() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func newTestMemory() *mainmem.Memory { return mainmem.New(1 << 20) }
