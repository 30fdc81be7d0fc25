// Package mainmem models the Cell's XDR main memory: a flat byte-addressed
// store shared by the PPE and (via DMA) the SPEs, plus an aligned allocator
// equivalent to the SDK's malloc_align/free_align that the paper's data
// wrappers rely on (§3.3: "preserve/enforce data alignment for future DMA
// operations").
//
// Data is stored for real: DMA operations copy bytes between this memory
// and SPE local stores, so a mis-programmed transfer produces wrong feature
// vectors, exactly as it would on hardware.
package mainmem

import (
	"fmt"
	"sort"

	"cellport/internal/backing"
)

// Addr is an effective address in main memory.
type Addr uint32

// AlignCacheLine is the 128-byte alignment at which DMA of >=16 bytes
// performs best.
const AlignCacheLine = 128

// Memory is a flat main memory with an aligned first-fit allocator.
type Memory struct {
	store backing.Store   // pooled; see Release
	free  []span          // sorted by base, coalesced
	alloc map[Addr]uint32 // base -> size of live allocations

	// Stats
	allocated   uint32
	peak        uint32
	allocations uint64
}

type span struct {
	base Addr
	size uint32
}

// New returns a memory of the given size in bytes. Address 0 is reserved
// (kept unallocatable) so that 0 can serve as a null address in wrappers.
func New(size uint32) *Memory {
	if size < AlignCacheLine {
		panic("mainmem: memory too small")
	}
	m := &Memory{store: backing.New(size), alloc: make(map[Addr]uint32)}
	m.Clear()
	return m
}

// Clear returns the memory to the state New leaves it in, keeping its
// store and the capacity of its allocator's tables: all zero (only the
// prefix Bytes reached is re-zeroed), nothing allocated, counters at
// zero. Clear on a released memory panics.
func (m *Memory) Clear() {
	m.checkLive()
	m.store.Clear()
	clear(m.alloc)
	m.free = append(m.free[:0], span{base: AlignCacheLine, size: m.Size() - AlignCacheLine})
	m.allocated, m.peak, m.allocations = 0, 0, 0
}

// Release returns the backing store to the process-wide pool
// (internal/backing) for reuse by a future New. The Memory must not be
// used afterwards (Alloc and Bytes panic). Calling Release is optional —
// an unreleased store is simply garbage-collected. Release is idempotent:
// a second Release (e.g. Machine.Release after a caller already released
// the memory directly) is a no-op.
func (m *Memory) Release() { m.store.Release() }

// Live reports whether the memory has not been released.
func (m *Memory) Live() bool { return m.store.Live() }

// checkLive panics with a clear diagnosis when the memory was released;
// the backing store may already belong to another Memory, so any further
// use would corrupt an unrelated run.
func (m *Memory) checkLive() {
	if !m.store.Live() {
		panic("mainmem: use after Release")
	}
}

// Size returns the total memory size.
func (m *Memory) Size() uint32 { return m.store.Len() }

// PeakAllocated returns the high-water mark of live bytes.
func (m *Memory) PeakAllocated() uint32 { return m.peak }

// Alloc reserves size bytes aligned to align (a power of two) and returns
// the base address. It fails when no suitable free span exists.
func (m *Memory) Alloc(size, align uint32) (Addr, error) {
	m.checkLive()
	if size == 0 {
		return 0, fmt.Errorf("mainmem: zero-size allocation")
	}
	if align == 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("mainmem: alignment %d is not a power of two", align)
	}
	for i, s := range m.free {
		base := (uint32(s.base) + align - 1) &^ (align - 1)
		pad := base - uint32(s.base)
		if pad+size > s.size {
			continue
		}
		// Carve [base, base+size) out of s, keeping the pad and the tail.
		m.free = append(m.free[:i], m.free[i+1:]...)
		if pad > 0 {
			m.insertFree(span{base: s.base, size: pad})
		}
		if tail := s.size - pad - size; tail > 0 {
			m.insertFree(span{base: Addr(base + size), size: tail})
		}
		m.alloc[Addr(base)] = size
		m.allocated += size
		m.allocations++
		if m.allocated > m.peak {
			m.peak = m.allocated
		}
		return Addr(base), nil
	}
	return 0, fmt.Errorf("mainmem: out of memory allocating %d bytes (align %d, %d live)", size, align, m.allocated)
}

// MustAlloc is Alloc that panics on failure; for setup code whose sizes are
// static.
func (m *Memory) MustAlloc(size, align uint32) Addr {
	a, err := m.Alloc(size, align)
	if err != nil {
		panic(fmt.Sprintf("mainmem: MustAlloc(%d B, align %d) with %d B live of %d B total: %v",
			size, align, m.allocated, m.Size(), err))
	}
	return a
}

// Free releases an allocation made by Alloc. Freeing an unknown address is
// an error (it would indicate wrapper corruption).
func (m *Memory) Free(a Addr) error {
	size, ok := m.alloc[a]
	if !ok {
		return fmt.Errorf("mainmem: free of unallocated address %#x", uint32(a))
	}
	delete(m.alloc, a)
	m.allocated -= size
	m.insertFree(span{base: a, size: size})
	m.coalesce()
	return nil
}

func (m *Memory) insertFree(s span) {
	i := sort.Search(len(m.free), func(i int) bool { return m.free[i].base >= s.base })
	m.free = append(m.free, span{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = s
}

func (m *Memory) coalesce() {
	out := m.free[:0]
	for _, s := range m.free {
		if n := len(out); n > 0 && uint32(out[n-1].base)+out[n-1].size == uint32(s.base) {
			out[n-1].size += s.size
			continue
		}
		out = append(out, s)
	}
	m.free = out
}

// Bytes returns a mutable view of n bytes at addr, bounds-checked against
// the whole memory (not against allocation boundaries, as on hardware).
func (m *Memory) Bytes(addr Addr, n uint32) []byte {
	return m.store.View("mainmem", uint32(addr), n)
}

// CheckLeaks returns an error naming live allocations; test helpers use it
// to assert that ported applications release their wrappers.
func (m *Memory) CheckLeaks() error {
	if len(m.alloc) == 0 {
		return nil
	}
	addrs := make([]Addr, 0, len(m.alloc))
	for a := range m.alloc {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return fmt.Errorf("mainmem: %d allocation(s) leaked, first at %#x (%d bytes)",
		len(addrs), uint32(addrs[0]), m.alloc[addrs[0]])
}

// Allocations returns the cumulative number of successful allocations.
func (m *Memory) Allocations() uint64 { return m.allocations }
