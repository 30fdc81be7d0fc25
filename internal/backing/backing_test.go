package backing

import (
	"runtime"
	"strings"
	"testing"
)

// TestSizesDoNotMix: a released store only comes back for a New of its
// own size, so main memories and local stores never hand each other an
// array of the wrong length.
func TestSizesDoNotMix(t *testing.T) {
	big := New(4096)
	big.View("t", 0, 4096)[4095] = 1
	big.Release()
	small := New(1024)
	if small.Len() != 1024 {
		t.Fatalf("New(1024) returned a %d B store", small.Len())
	}
	for i, v := range small.View("t", 0, 1024) {
		if v != 0 {
			t.Fatalf("byte %d reads %#x, want 0", i, v)
		}
	}
}

// TestReleasedArraySurvivesGC: a released array stays on the free list
// through garbage collections, so the next New of its size reuses it
// instead of allocating and zeroing a fresh one.
func TestReleasedArraySurvivesGC(t *testing.T) {
	const size = 3 << 10 // no other test uses this size
	s := New(size)
	s.View("t", 0, size)[size-1] = 7
	want := &s.View("t", 0, 1)[0]
	s.Release()
	runtime.GC()
	runtime.GC()
	again := New(size)
	defer again.Release()
	if got := &again.View("t", 0, 1)[0]; got != want {
		t.Fatal("New after two GCs allocated a fresh array instead of reusing the released one")
	}
	if v := again.View("t", size-1, 1)[0]; v != 0 {
		t.Fatalf("recycled array reads %#x at its last byte, want 0", v)
	}
}

// TestViewAfterReleasePanics: the array may already back another store,
// so a released store refuses every access and names its owner.
func TestViewAfterReleasePanics(t *testing.T) {
	s := New(64)
	s.Release()
	s.Release() // a no-op, not a second pool put
	if s.Live() || s.Len() != 0 {
		t.Fatal("released store still reports itself live")
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "owner: use after Release") {
			t.Fatalf("panic %q does not diagnose the released store", r)
		}
	}()
	s.View("owner", 0, 1)
}
