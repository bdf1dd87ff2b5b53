package fft

import (
	"sync"
	"sync/atomic"
)

// The plan cache.

// snapGet is the lock-free read of an atomic-snapshot map: it loads the
// current immutable snapshot and looks the key up.
func snapGet[K comparable, V any](p *atomic.Pointer[map[K]V], k K) (V, bool) {
	if m := p.Load(); m != nil {
		v, ok := (*m)[k]
		return v, ok
	}
	var zero V
	return zero, false
}

// snapPut publishes key k with value v copy-on-write. The caller must hold
// the cache mutex, so concurrent misses build at most one value per key.
func snapPut[K comparable, V any](p *atomic.Pointer[map[K]V], k K, v V) {
	var cur map[K]V
	if m := p.Load(); m != nil {
		cur = *m
	}
	next := make(map[K]V, len(cur)+1)
	for kk, vv := range cur {
		next[kk] = vv
	}
	next[k] = v
	p.Store(&next)
}

// key2 and key3 key the 2-D and 3-D plan maps.
type key2 struct{ nx, ny int }
type key3 struct{ nx, ny, nz int }

// Cache is a concurrency-safe plan cache keyed by transform shape — the
// "wisdom" reuse pattern of FFTW, covering 1-D, 2-D plane and 3-D box
// plans. The zero value is ready to use.
//
// Reads are lock-free: lookups load an immutable map snapshot through an
// atomic pointer, so host-parallel workers hitting DefaultCache never
// serialize on a mutex. Only a miss takes the mutex, re-checks under the
// lock, rebuilds the snapshot copy-on-write and publishes it — N goroutines
// missing the same shape simultaneously still construct exactly one plan
// (the concurrent-serving path of fftxd depends on this; see
// TestCacheConcurrentMiss).
type Cache struct {
	mu      sync.Mutex
	builds  atomic.Int64
	plans   atomic.Pointer[map[int]*Plan]
	plans2d atomic.Pointer[map[key2]*Plan2D]
	plans3d atomic.Pointer[map[key3]*Plan3D]
}

// Builds returns the cumulative number of plan constructions the cache has
// performed (misses that built). Each Get2D/Get3D counts as one build even
// though it composes several 1-D plans internally. The serving layer
// exports it as a gauge; the race tests assert single construction per
// shape with it.
func (c *Cache) Builds() int64 { return c.builds.Load() }

// Get returns the cached plan for length n, creating it on first use.
// Cached plans are built with radixAuto, so a lookup resolves the
// per-shape layout+radix policy (PickRadix, PickLayout) exactly once —
// the serving path never re-derives variants per request.
func (c *Cache) Get(n int) *Plan {
	if p, ok := snapGet(&c.plans, n); ok {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := snapGet(&c.plans, n); ok {
		return p
	}
	p := newPlanRadix(n, radixAuto)
	c.builds.Add(1)
	snapPut(&c.plans, n, p)
	return p
}

// Get2D returns the cached plane plan for nx × ny grids, creating it on
// first use.
func (c *Cache) Get2D(nx, ny int) *Plan2D {
	checkDim(nx)
	checkDim(ny)
	k := key2{nx, ny}
	if p, ok := snapGet(&c.plans2d, k); ok {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := snapGet(&c.plans2d, k); ok {
		return p
	}
	p := NewPlan2D(nx, ny)
	c.builds.Add(1)
	snapPut(&c.plans2d, k, p)
	return p
}

// Get3D returns the cached box plan for nx × ny × nz grids, creating it on
// first use.
func (c *Cache) Get3D(nx, ny, nz int) *Plan3D {
	checkDim(nx)
	checkDim(ny)
	checkDim(nz)
	k := key3{nx, ny, nz}
	if p, ok := snapGet(&c.plans3d, k); ok {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := snapGet(&c.plans3d, k); ok {
		return p
	}
	p := NewPlan3D(nx, ny, nz)
	c.builds.Add(1)
	snapPut(&c.plans3d, k, p)
	return p
}

// DefaultCache is the package-level plan cache.
var DefaultCache Cache
