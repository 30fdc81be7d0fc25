package ls

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestLoadProgramTooBig(t *testing.T) {
	l := New()
	if err := l.LoadProgram(Size); err == nil {
		t.Fatal("program of full LS size must not fit (stack reservation)")
	}
	if err := l.LoadProgram(Size - DefaultStackBytes); err != nil {
		t.Fatalf("exact fit should load: %v", err)
	}
}

func TestAllocRespectsCapacity(t *testing.T) {
	l := New()
	if err := l.LoadProgram(64 * 1024); err != nil {
		t.Fatal(err)
	}
	// 256K - 8K stack - 64K code = 184K available.
	if _, err := l.Alloc(184*1024, 16); err != nil {
		t.Fatalf("exact-fit alloc failed: %v", err)
	}
	if _, err := l.Alloc(1, 1); err == nil {
		t.Fatal("allocation beyond capacity should fail")
	}
}

func TestAllocErrorIsInformative(t *testing.T) {
	l := New()
	if err := l.LoadProgram(200 * 1024); err != nil {
		t.Fatal(err)
	}
	_, err := l.Alloc(100*1024, 16)
	if err == nil {
		t.Fatal("expected failure")
	}
	for _, needle := range []string{"code", "stack", "available"} {
		if !strings.Contains(err.Error(), needle) {
			t.Errorf("error %q should mention %q", err, needle)
		}
	}
}

func TestResetReleasesData(t *testing.T) {
	l := New()
	if err := l.LoadProgram(10 * 1024); err != nil {
		t.Fatal(err)
	}
	before := l.Free()
	l.MustAlloc(50*1024, 128)
	l.Reset()
	if l.Free() != before {
		t.Fatalf("Free after Reset = %d, want %d", l.Free(), before)
	}
	if l.Peak() < 60*1024 {
		t.Fatalf("Peak = %d, should remember high water", l.Peak())
	}
}

func TestBytesBacked(t *testing.T) {
	l := New()
	a := l.MustAlloc(32, 16)
	l.Bytes(a, 32)[7] = 0x5A
	if l.Bytes(a, 32)[7] != 0x5A {
		t.Fatal("LS writes not visible")
	}
}

func TestBytesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Bytes(Size-4, 8)
}

// Property: allocations are aligned, in bounds, non-overlapping, and never
// intrude on the stack reservation.
func TestPropBumpAllocator(t *testing.T) {
	f := func(sizes []uint16, aligns []uint8, codeKB uint8) bool {
		l := New()
		code := uint32(codeKB%128) * 1024
		if err := l.LoadProgram(code); err != nil {
			return false
		}
		var prevEnd uint32 = code
		for i, s := range sizes {
			size := uint32(s)%8192 + 1
			align := uint32(1)
			if i < len(aligns) {
				align = 1 << (aligns[i] % 8)
			}
			a, err := l.Alloc(size, align)
			if err != nil {
				return l.Free() < size+align // failure only when genuinely tight
			}
			if uint32(a)%align != 0 || uint32(a) < prevEnd {
				return false
			}
			if uint64(a)+uint64(size) > Size-DefaultStackBytes {
				return false
			}
			prevEnd = uint32(a) + size
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledStoreIsFresh: a store built after a Release must read all
// zero, even where its pooled predecessor wrote into the code, data and
// stack regions, and its allocator must start over.
func TestRecycledStoreIsFresh(t *testing.T) {
	// sync.Pool may drop a released store (the race detector drops some on
	// purpose), so repeat until one is observed to come back.
	for try := 0; try < 100; try++ {
		l := New()
		if err := l.LoadProgram(16 * 1024); err != nil {
			t.Fatal(err)
		}
		data := l.MustAlloc(4096, 128)
		for _, r := range []struct {
			addr Addr
			n    uint32
		}{
			{0, 64},                        // code
			{data, 4096},                   // data
			{Size - DefaultStackBytes, 64}, // bottom of the stack
			{Size - 16, 16},                // top of the stack
		} {
			b := l.Bytes(r.addr, r.n)
			for i := range b {
				b[i] = 0xA5
			}
		}
		first := &l.Bytes(0, 1)[0]
		l.Release()

		f := New()
		all := f.Bytes(0, Size)
		for a, v := range all {
			if v != 0 {
				t.Fatalf("byte %#x reads %#x, want 0", a, v)
			}
		}
		if f.Used() != 0 || f.Peak() != 0 || f.code != 0 || f.Free() != Size-DefaultStackBytes {
			t.Fatalf("allocator state not fresh: used %d peak %d code %d free %d",
				f.Used(), f.Peak(), f.code, f.Free())
		}
		recycled := &all[0] == first
		f.Release()
		if recycled {
			return
		}
	}
	t.Fatal("no released store came back from the pool in 100 tries")
}

// TestBytesAfterReleasePanics: a released store's memory may already
// belong to another SPE, so any access must fail loudly, and a second
// Release must not put the memory in the pool twice.
func TestBytesAfterReleasePanics(t *testing.T) {
	l := New()
	l.Release()
	l.Release()
	a, b := New(), New()
	a.Bytes(0, 1)[0] = 1
	if b.Bytes(0, 1)[0] != 0 {
		t.Fatal("a double Release let two stores share one memory")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Bytes after Release did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "ls: use after Release") {
			t.Fatalf("panic %q does not diagnose the released store", msg)
		}
	}()
	l.Bytes(0, 1)
}
