package fft

import (
	"math/rand"
	"sync"
	"testing"
)

// TestCacheConcurrentMiss hammers a fresh Cache from many goroutines that
// all miss simultaneously, on the same and on different shapes — the
// server's concurrent-miss path. It asserts that every shape is constructed
// exactly once (no duplicate-build waste) and that all goroutines observe
// the same plan pointer per shape. Run under -race this also exercises the
// atomic-snapshot publication protocol.
func TestCacheConcurrentMiss(t *testing.T) {
	const goroutines = 32
	lengths := []int{8, 12, 60, 97, 120, 243}
	shapes2d := [][2]int{{8, 12}, {16, 16}, {20, 12}}
	shapes3d := [][3]int{{8, 8, 8}, {12, 8, 4}}

	var c Cache
	var start, done sync.WaitGroup
	start.Add(1)

	got1d := make([][]*Plan, goroutines)
	got2d := make([][]*Plan2D, goroutines)
	got3d := make([][]*Plan3D, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		done.Add(1)
		go func() {
			defer done.Done()
			// Per-goroutine shuffled visit order, so the "same shape from
			// everyone at once" and "different shapes racing the same
			// mutex" interleavings both occur.
			rng := rand.New(rand.NewSource(int64(g)))
			order := rng.Perm(len(lengths))
			start.Wait()
			got1d[g] = make([]*Plan, len(lengths))
			for _, i := range order {
				got1d[g][i] = c.Get(lengths[i])
			}
			got2d[g] = make([]*Plan2D, len(shapes2d))
			for i, s := range shapes2d {
				got2d[g][i] = c.Get2D(s[0], s[1])
			}
			got3d[g] = make([]*Plan3D, len(shapes3d))
			for i, s := range shapes3d {
				got3d[g][i] = c.Get3D(s[0], s[1], s[2])
			}
		}()
	}
	start.Done()
	done.Wait()

	for g := 1; g < goroutines; g++ {
		for i := range lengths {
			if got1d[g][i] != got1d[0][i] {
				t.Errorf("goroutine %d got a different plan for n=%d", g, lengths[i])
			}
		}
		for i := range shapes2d {
			if got2d[g][i] != got2d[0][i] {
				t.Errorf("goroutine %d got a different 2-D plan for %v", g, shapes2d[i])
			}
		}
		for i := range shapes3d {
			if got3d[g][i] != got3d[0][i] {
				t.Errorf("goroutine %d got a different 3-D plan for %v", g, shapes3d[i])
			}
		}
	}

	want := int64(len(lengths) + len(shapes2d) + len(shapes3d))
	if got := c.Builds(); got != want {
		t.Errorf("cache performed %d plan builds, want exactly %d (one per shape)", got, want)
	}

	// The cached plans must be the ones subsequent lookups see.
	for i, n := range lengths {
		if c.Get(n) != got1d[0][i] {
			t.Errorf("post-race lookup for n=%d returned a different plan", n)
		}
	}
}

func TestCacheReusesPlans(t *testing.T) {
	var c Cache
	a := c.Get(48)
	b := c.Get(48)
	if a != b {
		t.Fatal("cache returned distinct plans for the same length")
	}
	if c.Get(32) == a {
		t.Fatal("distinct lengths share a plan")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	var c Cache
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 2; n <= 64; n += 2 {
				p := c.Get(n)
				x := make([]complex128, n)
				x[0] = 1
				p.Transform(x, Forward)
			}
		}()
	}
	wg.Wait()
}

// TestCacheBatchTransformConcurrent drives the batch execution path from
// several goroutines sharing one cached plan, checking results against the
// serial TransformMany — the exact sharing pattern of fftxd workers.
func TestCacheBatchTransformConcurrent(t *testing.T) {
	const n, rows, goroutines = 24, 16, 8
	var c Cache
	plan := c.Get(n)

	ref := make([]complex128, rows*n)
	rng := rand.New(rand.NewSource(7))
	for i := range ref {
		ref[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := append([]complex128(nil), ref...)
	plan.TransformMany(want, rows, Forward)

	var wg sync.WaitGroup
	outs := make([][]complex128, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := append([]complex128(nil), ref...)
			c.Get(n).TransformBatch(buf, rows, Forward)
			outs[g] = buf
		}()
	}
	wg.Wait()
	for g, out := range outs {
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("goroutine %d row result diverges at %d: %v vs %v", g, i, out[i], want[i])
			}
		}
	}
}
