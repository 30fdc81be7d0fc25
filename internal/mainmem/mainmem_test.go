package mainmem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	m := New(1 << 20)
	for _, align := range []uint32{1, 2, 4, 8, 16, 128, 4096} {
		a, err := m.Alloc(100, align)
		if err != nil {
			t.Fatalf("Alloc(align=%d): %v", align, err)
		}
		if uint32(a)%align != 0 {
			t.Errorf("Alloc(align=%d) returned %#x, misaligned", align, uint32(a))
		}
	}
}

func TestAllocRejectsBadArgs(t *testing.T) {
	m := New(1 << 16)
	if _, err := m.Alloc(0, 16); err == nil {
		t.Error("zero-size alloc should fail")
	}
	if _, err := m.Alloc(16, 3); err == nil {
		t.Error("non-power-of-two align should fail")
	}
	if _, err := m.Alloc(1<<20, 16); err == nil {
		t.Error("oversized alloc should fail")
	}
}

func TestAddressZeroNeverAllocated(t *testing.T) {
	m := New(1 << 16)
	a, err := m.Alloc(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 {
		t.Fatal("address 0 must stay reserved as the null address")
	}
}

func TestFreeAndReuse(t *testing.T) {
	m := New(1 << 16)
	a := m.MustAlloc(1024, 16)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	b := m.MustAlloc(1024, 16)
	if a != b {
		t.Errorf("freed block not reused: first %#x, second %#x", uint32(a), uint32(b))
	}
}

func TestDoubleFreeFails(t *testing.T) {
	m := New(1 << 16)
	a := m.MustAlloc(64, 16)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(a); err == nil {
		t.Fatal("double free should fail")
	}
	if err := m.Free(Addr(12345)); err == nil {
		t.Fatal("free of never-allocated address should fail")
	}
}

func TestCoalescingRestoresSpan(t *testing.T) {
	m := New(1 << 16)
	var addrs []Addr
	for i := 0; i < 8; i++ {
		addrs = append(addrs, m.MustAlloc(512, 16))
	}
	// Free in shuffled order; afterwards the memory must be one span again.
	rand.New(rand.NewSource(1)).Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	for _, a := range addrs {
		if err := m.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.free); got != 1 {
		t.Fatalf("after freeing everything, free spans = %d, want 1", got)
	}
	if m.allocated != 0 {
		t.Fatalf("allocated = %d, want 0", m.allocated)
	}
	if err := m.CheckLeaks(); err != nil {
		t.Fatalf("unexpected leak report: %v", err)
	}
}

func TestCheckLeaksReports(t *testing.T) {
	m := New(1 << 16)
	m.MustAlloc(64, 16)
	if err := m.CheckLeaks(); err == nil {
		t.Fatal("CheckLeaks should report the live allocation")
	}
}

func TestBytesViewsAreBacked(t *testing.T) {
	m := New(1 << 16)
	a := m.MustAlloc(16, 16)
	m.Bytes(a, 16)[3] = 0xAB
	if m.Bytes(a, 16)[3] != 0xAB {
		t.Fatal("writes through Bytes view not visible")
	}
	// The view must be capacity-limited so appends cannot clobber neighbours.
	v := m.Bytes(a, 4)
	if cap(v) != 4 {
		t.Fatalf("Bytes cap = %d, want 4", cap(v))
	}
}

func TestBytesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range access")
		}
	}()
	m := New(1 << 12)
	m.Bytes(Addr(1<<12-8), 16)
}

func TestPeakTracksHighWater(t *testing.T) {
	m := New(1 << 16)
	a := m.MustAlloc(1000, 16)
	b := m.MustAlloc(2000, 16)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(b); err != nil {
		t.Fatal(err)
	}
	if m.PeakAllocated() != 3000 {
		t.Fatalf("peak = %d, want 3000", m.PeakAllocated())
	}
	if m.Allocations() != 2 {
		t.Fatalf("allocations = %d, want 2", m.Allocations())
	}
}

// Property: any sequence of allocations yields non-overlapping, aligned,
// in-bounds blocks, and freeing everything restores a single span.
func TestPropAllocatorInvariant(t *testing.T) {
	type req struct {
		Size  uint16
		Align uint8
	}
	f := func(reqs []req) bool {
		m := New(1 << 20)
		type block struct {
			base Addr
			size uint32
		}
		var live []block
		for _, r := range reqs {
			size := uint32(r.Size)%4096 + 1
			align := uint32(1) << (uint32(r.Align) % 8) // 1..128
			a, err := m.Alloc(size, align)
			if err != nil {
				continue // out of memory is legal; invariants still hold
			}
			if uint32(a)%align != 0 {
				return false
			}
			if uint64(a)+uint64(size) > uint64(m.Size()) {
				return false
			}
			for _, b := range live {
				if uint32(a) < uint32(b.base)+b.size && uint32(b.base) < uint32(a)+size {
					return false // overlap
				}
			}
			live = append(live, block{a, size})
		}
		for _, b := range live {
			if err := m.Free(b.base); err != nil {
				return false
			}
		}
		return len(m.free) == 1 && m.allocated == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseRecyclesZeroed: a Memory built after a Release must see all
// bytes zero, even where the released predecessor wrote — the pooled
// backing store re-zeroes its touched prefix on reuse.
func TestReleaseRecyclesZeroed(t *testing.T) {
	const size = 1 << 20
	m := New(size)
	a := m.MustAlloc(4096, AlignCacheLine)
	b := m.Bytes(a, 4096)
	for i := range b {
		b[i] = 0xAB
	}
	// Touch a high address directly so the dirty prefix is large.
	hi := m.Bytes(size-64, 64)
	hi[0] = 0xCD
	m.Release()

	m2 := New(size)
	got := m2.Bytes(0, size)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled memory dirty at %#x: %#x", i, v)
		}
	}
}

// TestReleaseInvalidatesMemory: any access after Release panics.
func TestReleaseInvalidatesMemory(t *testing.T) {
	m := New(1 << 16)
	m.Release()
	m.Release() // double release is a no-op
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes after Release did not panic")
		}
	}()
	m.Bytes(0, 1)
}

// TestDoubleReleaseDoesNotAliasPool: if a double Release pushed the same
// backing store into the pool twice, the next two News would hand out the
// same array as two "fresh" memories and writes through one would appear
// in the other. Pin the idempotency guard by observing isolation.
func TestDoubleReleaseDoesNotAliasPool(t *testing.T) {
	const size = 3 << 16 // distinctive size so other tests' pooled buffers don't match
	m := New(size)
	m.Bytes(0, 16) // touch so the store is dirty-tracked
	m.Release()
	m.Release() // must be a no-op, not a second pool put

	m1 := New(size)
	m2 := New(size)
	m1.Bytes(0, 16)[0] = 0xEE
	if got := m2.Bytes(0, 16)[0]; got != 0 {
		t.Fatalf("two fresh memories alias one backing store: m2[0] = %#x", got)
	}
}

// TestAllocAfterReleasePanics: allocation on a released memory must fail
// loudly, not hand out addresses into a store another run may now own.
func TestAllocAfterReleasePanics(t *testing.T) {
	m := New(1 << 16)
	m.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc after Release did not panic")
		}
	}()
	m.Alloc(64, 16) //nolint:errcheck // panics before returning
}
