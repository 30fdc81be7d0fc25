// Package backing is the one pool of zeroed byte arrays behind the
// simulator's memories: main memory (256 MB on the default machine) and
// every SPE local store (256 KB each). Building a memory is dominated by
// zeroing its array, a cost every simulated machine in a multi-point sweep
// would otherwise pay again. A Store records the high-water mark of the
// views it hands out; Release returns the array to a free list keyed by
// size, and the next New of that size re-zeroes only the marked prefix,
// so a recycled Store is indistinguishable from a fresh one.
package backing

import (
	"fmt"
	"sync"
)

// buf is one pooled array and the prefix of it that views have reached.
type buf struct {
	data    []byte
	touched uint32
}

// free holds the released bufs of each size, so main memories and local
// stores never evict each other. Unlike a sync.Pool, a garbage collection
// does not empty it, so a sweep does not re-allocate and re-zero a main
// memory after every few collections. It never holds more arrays of a
// size than were live at once, so it needs no bound.
var (
	freeMu sync.Mutex
	free   = map[uint32][]*buf{}
)

// Store is a zero-initialised byte array that tracks how far it has been
// written. The zero Store is released.
type Store struct {
	b *buf
}

// New returns an all-zero store of size bytes, recycled from the pool
// when a released one of that size is available.
func New(size uint32) Store {
	freeMu.Lock()
	list := free[size]
	if n := len(list); n > 0 {
		b := list[n-1]
		list[n-1] = nil
		free[size] = list[:n-1]
		freeMu.Unlock()
		s := Store{b: b}
		s.Clear()
		return s
	}
	freeMu.Unlock()
	return Store{b: &buf{data: make([]byte, size)}}
}

// Release returns the array to the pool. Every later View panics, since
// the array may already belong to another store. Release is idempotent:
// a second call is a no-op, so one array never enters the pool twice and
// two later stores never alias it.
func (s *Store) Release() {
	if s.b == nil {
		return
	}
	size := uint32(len(s.b.data))
	freeMu.Lock()
	free[size] = append(free[size], s.b)
	freeMu.Unlock()
	s.b = nil
}

// Clear makes the store all zero again, re-zeroing only the prefix views
// have reached, as New does for a recycled array. Clear on a released
// store panics.
func (s *Store) Clear() {
	clear(s.b.data[:s.b.touched])
	s.b.touched = 0
}

// Live reports whether the store has not been released.
func (s *Store) Live() bool { return s.b != nil }

// Len returns the store's size in bytes, or 0 once released.
func (s *Store) Len() uint32 {
	if s.b == nil {
		return 0
	}
	return uint32(len(s.b.data))
}

// View returns a mutable, capacity-capped view of n bytes at addr and
// raises the high-water mark to its end. owner names the memory in the
// panic a released store or an out-of-range access raises.
func (s *Store) View(owner string, addr, n uint32) []byte {
	b := s.b
	if b == nil {
		panic(owner + ": use after Release")
	}
	end := uint64(addr) + uint64(n)
	if end > uint64(len(b.data)) {
		panic(fmt.Sprintf("%s: access [%#x,%#x) beyond %d B", owner, addr, end, len(b.data)))
	}
	if uint32(end) > b.touched {
		b.touched = uint32(end)
	}
	return b.data[addr:end:end]
}
