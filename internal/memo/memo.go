// Package memo is the process-wide build-once map: a value is built on
// the first request for its key and then shared, read-only, by every later
// request from any goroutine.
package memo

import (
	"sync"
	"sync/atomic"
)

// Map memoises one value per key. The zero value is ready to use.
//
// Reads are lock-free: a lookup loads an immutable map snapshot through an
// atomic pointer, so concurrent readers never serialize. Only a miss takes
// the mutex, re-checks under it, builds the value and publishes a
// copy-on-write snapshot, so N goroutines missing one key at once build it
// exactly once. Publishing copies the snapshot, so a Map suits a bounded
// key set that is read far more often than it grows.
type Map[K comparable, V any] struct {
	mu     sync.Mutex
	builds atomic.Int64
	snap   atomic.Pointer[map[K]V]
}

// Get returns the value of key k, calling build(k) to make it on the first
// request. build runs under the map's lock, so it must not call Get on the
// same Map.
func (m *Map[K, V]) Get(k K, build func(K) V) V {
	if v, ok := m.Snapshot()[k]; ok {
		return v
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.Snapshot()
	if v, ok := cur[k]; ok {
		return v
	}
	v := build(k)
	m.builds.Add(1)
	next := make(map[K]V, len(cur)+1)
	for kk, vv := range cur {
		next[kk] = vv
	}
	next[k] = v
	m.snap.Store(&next)
	return v
}

// Snapshot returns the values built so far. The map is immutable: callers
// must not write to it. Indexing it directly lets a caller look a key up
// without building one, e.g. m.Snapshot()[string(b)] for a byte-slice key,
// which allocates nothing.
func (m *Map[K, V]) Snapshot() map[K]V {
	if p := m.snap.Load(); p != nil {
		return *p
	}
	return nil
}

// Builds returns the number of values the map has built: one per key it
// holds.
func (m *Map[K, V]) Builds() int64 { return m.builds.Load() }
