package fft

import (
	"math/rand"
	"testing"
)

func allocVec(n int) []complex128 {
	return randVec(rand.New(rand.NewSource(7)), n)
}

// The transform entry points must be allocation-free in steady state: the
// hot loops of the simulated pipeline call them millions of times, and any
// per-call garbage would dominate the host-side profile. Scratch comes from
// per-plan sync.Pools, so after a warm-up call every path runs on recycled
// buffers.

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the pins only hold in normal builds")
	}
	fn() // warm the scratch pools
	if avg := testing.AllocsPerRun(20, fn); avg != 0 {
		t.Errorf("%s: %v allocs per run, want 0", name, avg)
	}
}

func TestTransformZeroAllocs(t *testing.T) {
	for _, n := range []int{120, 128, 486} { // mixed radix, pure 4/2, with radix 3
		p := NewPlan(n)
		x := allocVec(n)
		assertZeroAllocs(t, "Transform", func() {
			p.Transform(x, Forward)
			p.Transform(x, Backward)
		})
	}
}

func TestTransformBluesteinZeroAllocs(t *testing.T) {
	p := NewPlan(97) // prime > maxDirectRadix: Bluestein path
	x := allocVec(97)
	assertZeroAllocs(t, "Transform(bluestein)", func() {
		p.Transform(x, Forward)
		p.Transform(x, Backward)
	})
}

func TestTransformManyZeroAllocs(t *testing.T) {
	n, count := 90, 16
	p := NewPlan(n)
	data := allocVec(n * count)
	assertZeroAllocs(t, "TransformMany", func() {
		p.TransformMany(data, count, Forward)
	})
}

func TestPlan2DZeroAllocs(t *testing.T) {
	p := NewPlan2D(48, 45)
	plane := allocVec(48 * 45)
	assertZeroAllocs(t, "Plan2D.Transform", func() {
		p.Transform(plane, Forward)
	})
}

func TestPlan3DZeroAllocs(t *testing.T) {
	p := NewPlan3D(20, 18, 24)
	box := allocVec(20 * 18 * 24)
	assertZeroAllocs(t, "Plan3D.Transform", func() {
		p.Transform(box, Backward)
	})
}

func TestTransformRowsSoAZeroAllocs(t *testing.T) {
	for _, n := range []int{60, 120, 128, 486} {
		p := newPlanRadix(n, radixAuto)
		rows := soaChunkRows + 5 // full chunk plus a partial tail
		data := allocVec(n * rows)
		assertZeroAllocs(t, "transformRowsSoA", func() {
			p.transformRowsSoA(data, rows, Forward)
		})
	}
}

func TestTransformColsSoAZeroAllocs(t *testing.T) {
	nx, ny := 60, 45
	p := newPlanRadix(nx, radixAuto)
	plane := allocVec(nx * ny)
	assertZeroAllocs(t, "transformColsSoA", func() {
		for iy0 := 0; iy0 < ny; iy0 += soaChunkRows {
			nb := ny - iy0
			if nb > soaChunkRows {
				nb = soaChunkRows
			}
			p.transformColsSoA(plane, ny, iy0, nb, Forward)
		}
	})
}

func TestVariantPlansZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		n int
		r radix
	}{{128, radix8}, {120, radix8}} {
		p := newPlanRadix(tc.n, tc.r)
		x := allocVec(tc.n)
		assertZeroAllocs(t, "Transform("+tc.r.String()+")", func() {
			p.Transform(x, Forward)
			p.Transform(x, Backward)
		})
	}
}
