// Package workcache provides a concurrency-safe memoization table with
// singleflight semantics, used to share expensive deterministic workload
// artifacts (generated image sets, trained model libraries, reference
// runs) across the many independent simulation points of an experiment
// sweep. The first goroutine to request a key computes the value while
// holding a per-key latch; concurrent requesters for the same key block
// on the latch and share the finished result instead of duplicating the
// work. Values must be deterministic functions of their key and are
// returned by reference, so callers must treat them as immutable.
package workcache

import (
	"errors"
	"sync"
	"sync/atomic"
)

// errPanicked is handed to waiters whose in-flight computation panicked;
// the panic itself propagates in the computing goroutine.
var errPanicked = errors.New("workcache: in-flight computation panicked")

// Cache memoizes compute(key) results for as long as the Cache lives;
// nothing is evicted. The zero value is ready to use. A Cache must not be
// copied after first use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]

	// hits and misses are counted at lookup admission, while mu is held:
	// a waiter blocked on an in-flight entry has already been counted, so
	// hits+misses always equals the number of Do calls that have passed
	// admission, even while computations are still in flight.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// entry is one key's slot: ready is closed once val/err are final.
type entry[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// Do returns the cached value for key, computing it with compute on the
// first request. Concurrent callers for the same key wait for the single
// in-flight computation rather than starting their own. Errors are cached
// alongside values: the computation is assumed deterministic, so a failed
// key fails identically on every lookup. If compute panics, the panic
// propagates to the caller that ran it and the key is removed so a later
// request retries instead of blocking forever.
func (c *Cache[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[K]*entry[V])
	}
	if e, ok := c.entries[key]; ok {
		c.hits.Add(1)
		c.mu.Unlock()
		<-e.ready
		return e.val, e.err
	}
	e := &entry[V]{ready: make(chan struct{})}
	c.entries[key] = e
	c.misses.Add(1)
	c.mu.Unlock()

	done := false
	defer func() {
		if !done { // compute panicked: unpoison the key, release waiters
			e.err = errPanicked
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
			close(e.ready)
		}
	}()
	e.val, e.err = compute()
	done = true
	close(e.ready)
	return e.val, e.err
}

// Stats reports lookups that found an entry (hits, including waits on an
// in-flight computation) and lookups that computed (misses). Both are
// counted when the lookup is admitted, not when it completes, so under
// concurrency hits+misses always equals the number of admitted Do calls.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
