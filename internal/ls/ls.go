// Package ls models an SPE Local Storage: 256 KB of unified code+data
// memory, entirely software-managed (§2). Kernels that do not fit — code
// image plus buffers plus stack — fail to load, which is exactly the
// constraint that forces the paper's sliced DMA processing (§3.4).
package ls

import (
	"errors"
	"fmt"

	"cellport/internal/backing"
)

// ErrLocalStoreOverflow is the typed sentinel wrapped by every
// out-of-capacity (or injected soft-overflow) allocation failure, so
// callers can distinguish capacity faults from porting bugs.
var ErrLocalStoreOverflow = errors.New("ls: out of local store")

// Size is the architected local store capacity in bytes.
const Size = 256 * 1024

// DefaultStackBytes is the stack reservation at the top of the LS.
const DefaultStackBytes = 8 * 1024

// Addr is a local-store address.
type Addr uint32

// LocalStore is one SPE's local memory with a code region at the bottom, a
// bump-allocated data region above it, and a stack reservation at the top.
type LocalStore struct {
	store backing.Store // pooled; see Release
	code  uint32        // bytes reserved for the program image, from address 0
	brk   uint32        // next free data address
	stack uint32        // bytes reserved at the top
	peak  uint32
	// fault, when set, is consulted before every Alloc; a non-nil return
	// fails that allocation (deterministic soft-overflow injection).
	fault func(size, align uint32) error
}

// SetAllocFault installs (or clears, with nil) the allocation fault hook.
func (l *LocalStore) SetAllocFault(h func(size, align uint32) error) { l.fault = h }

// New returns an empty, all-zero local store with the default stack
// reservation. Its memory comes from the pool internal/backing shares
// with main memory: a store released by an earlier machine is re-zeroed
// only up to the highest byte Bytes ever handed out.
func New() *LocalStore {
	return &LocalStore{store: backing.New(Size), stack: DefaultStackBytes}
}

// Release returns the store's memory to the pool for a future New. The
// store must not be used afterwards: Bytes panics. Calling Release is
// optional, and a second call is a no-op.
func (l *LocalStore) Release() { l.store.Release() }

// LoadProgram reserves the bottom of the LS for a program image of the
// given size, resetting any data allocations. It fails if the image plus
// stack cannot fit.
func (l *LocalStore) LoadProgram(codeBytes uint32) error {
	if codeBytes+l.stack > Size {
		return fmt.Errorf("ls: program image %d B + stack %d B exceeds %d B local store",
			codeBytes, l.stack, Size)
	}
	l.code = codeBytes
	l.brk = (codeBytes + 15) &^ 15
	l.peak = l.brk
	return nil
}

// Alloc reserves size bytes aligned to align (power of two) in the data
// region. Allocation is bump-only; Reset releases everything, matching the
// static-buffer discipline of real SPE kernels.
func (l *LocalStore) Alloc(size, align uint32) (Addr, error) {
	if size == 0 {
		return 0, fmt.Errorf("ls: zero-size allocation")
	}
	if align == 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("ls: alignment %d not a power of two", align)
	}
	if l.fault != nil {
		if err := l.fault(size, align); err != nil {
			return 0, err
		}
	}
	base := (l.brk + align - 1) &^ (align - 1)
	end := uint64(base) + uint64(size)
	if end > uint64(Size-l.stack) {
		return 0, fmt.Errorf("%w: need %d B at %#x, %d B available (code %d B, stack %d B)",
			ErrLocalStoreOverflow, size, base, Size-l.stack-l.brk, l.code, l.stack)
	}
	l.brk = uint32(end)
	if l.brk > l.peak {
		l.peak = l.brk
	}
	return Addr(base), nil
}

// MustAlloc is Alloc that panics on failure, for kernels with static
// buffer plans validated at port time.
func (l *LocalStore) MustAlloc(size, align uint32) Addr {
	a, err := l.Alloc(size, align)
	if err != nil {
		panic(fmt.Sprintf("ls: MustAlloc(%d B, align %d) on a store with %d B free (code %d B): %v",
			size, align, l.Free(), l.code, err))
	}
	return a
}

// Reset releases all data allocations (the program image stays loaded).
func (l *LocalStore) Reset() { l.brk = (l.code + 15) &^ 15 }

// Free reports the bytes still available for data.
func (l *LocalStore) Free() uint32 { return Size - l.stack - l.brk }

// Used reports bytes in use (code + data, excluding stack).
func (l *LocalStore) Used() uint32 { return l.brk }

// Peak reports the data-region high-water mark (including code).
func (l *LocalStore) Peak() uint32 { return l.peak }

// Bytes returns a mutable bounds-checked view of n bytes at addr. Access
// to the stack region is allowed (it is memory like any other).
func (l *LocalStore) Bytes(addr Addr, n uint32) []byte {
	return l.store.View("ls", uint32(addr), n)
}
