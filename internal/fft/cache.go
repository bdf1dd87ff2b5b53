package fft

import "repro/internal/memo"

// The plan cache.

// key2 and key3 key the 2-D and 3-D plan maps.
type key2 struct{ nx, ny int }
type key3 struct{ nx, ny, nz int }

// Cache is a concurrency-safe plan cache keyed by transform shape — the
// "wisdom" reuse pattern of FFTW, covering 1-D, 2-D plane and 3-D box
// plans. The zero value is ready to use.
//
// Each kind of plan is a memo.Map, so reads are lock-free: host-parallel
// workers hitting DefaultCache never serialize on a mutex, and N goroutines
// missing the same shape simultaneously still construct exactly one plan
// (the concurrent-serving path of fftxd depends on this; see
// TestCacheConcurrentMiss).
type Cache struct {
	plans   memo.Map[int, *Plan]
	plans2d memo.Map[key2, *Plan2D]
	plans3d memo.Map[key3, *Plan3D]
}

// Builds returns the cumulative number of plan constructions the cache has
// performed (misses that built). Each Get2D/Get3D counts as one build even
// though it composes several 1-D plans internally. The serving layer
// exports it as a gauge; the race tests assert single construction per
// shape with it.
func (c *Cache) Builds() int64 {
	return c.plans.Builds() + c.plans2d.Builds() + c.plans3d.Builds()
}

// Get returns the cached plan for length n, creating it on first use.
// Cached plans are built with radixAuto, so a lookup resolves the
// per-shape layout+radix policy (PickRadix, PickLayout) exactly once —
// the serving path never re-derives variants per request.
func (c *Cache) Get(n int) *Plan { return c.plans.Get(n, buildPlan) }

// Get2D returns the cached plane plan for nx × ny grids, creating it on
// first use.
func (c *Cache) Get2D(nx, ny int) *Plan2D {
	checkDim(nx)
	checkDim(ny)
	return c.plans2d.Get(key2{nx, ny}, buildPlan2D)
}

// Get3D returns the cached box plan for nx × ny × nz grids, creating it on
// first use.
func (c *Cache) Get3D(nx, ny, nz int) *Plan3D {
	checkDim(nx)
	checkDim(ny)
	checkDim(nz)
	return c.plans3d.Get(key3{nx, ny, nz}, buildPlan3D)
}

// buildPlan, buildPlan2D and buildPlan3D build a cache's plans. They
// capture nothing, so a lookup allocates no closure.
func buildPlan(n int) *Plan      { return newPlanRadix(n, radixAuto) }
func buildPlan2D(k key2) *Plan2D { return NewPlan2D(k.nx, k.ny) }
func buildPlan3D(k key3) *Plan3D { return NewPlan3D(k.nx, k.ny, k.nz) }

// DefaultCache is the package-level plan cache.
var DefaultCache Cache
