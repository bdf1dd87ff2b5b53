package fft

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/par"
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
	assertAllocsAtMost(t, name, 0, 1, fn)
}

// assertAllocsAtMost pins fn to at most max allocations per run, reading
// the lowest of tries measurements. More than one try is for calls that
// fan out: a par helper that is off its CPU when the call hands out work
// sends it down the go fallback, which allocates. Such a miss only ever
// adds, so the lowest reading is the steady state.
func assertAllocsAtMost(t *testing.T, name string, max float64, tries int, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the pins only hold in normal builds")
	}
	fn() // warm the scratch pools
	avg := testing.AllocsPerRun(20, fn)
	for i := 1; i < tries && avg > max; i++ {
		avg = min(avg, testing.AllocsPerRun(20, fn))
	}
	if avg > max {
		t.Errorf("%s: %v allocs per run, want at most %v", name, avg, max)
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
	// 15, 75, 135 and 225 end on radix 3 and 125 on radix 5: their final
	// stage runs in place before the copy-out.
	for _, n := range []int{15, 60, 75, 120, 125, 128, 135, 225, 486} {
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

// batchTransformer is the TransformBatch surface Plan, Plan2D and Plan3D
// share.
type batchTransformer interface {
	TransformBatch(data []complex128, count int, sign Sign)
}

// TransformBatch at two workers, over the batches bench's kernel_batch
// transforms plus serve_json's 16³ box. A batch that fits one chunk runs
// on the caller and must allocate nothing; a batch that fans out costs
// exactly the closure it hands to par.ParallelFor, whose own per-call
// state is pooled. hotalloc counts closure creation as free, so these
// pins, not the analyzer, guard the batch path.
func TestTransformBatchAllocs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the helper pool is empty below GOMAXPROCS 2: every fan-out starts a goroutine")
	}
	par.SetWorkers(2)
	t.Cleanup(func() { par.SetWorkers(0) })
	for _, tc := range []struct {
		name string
		p    batchTransformer
		size int
		rows int
		fans bool // count exceeds the plan's grain at two workers
	}{
		{"z120", NewPlan(120), 120, 128, true},
		{"xy120", NewPlan2D(120, 120), 120 * 120, 1, false},
		{"box32", NewPlan3D(32, 32, 32), 32 * 32 * 32, 1, false},
		{"p4096", NewPlan(4096), 4096, 4, false},
		{"p64", NewPlan(64), 64, 128, true},
		{"b1009", NewPlan(1009), 1009, 2, false},
		{"box16", NewPlan3D(16, 16, 16), 16 * 16 * 16, 1, false},
	} {
		data := allocVec(tc.size * tc.rows)
		fn := func() {
			tc.p.TransformBatch(data, tc.rows, Forward)
			tc.p.TransformBatch(data, tc.rows, Backward)
		}
		if tc.fans {
			assertAllocsAtMost(t, "TransformBatch("+tc.name+")", 2, 5, fn)
		} else {
			assertZeroAllocs(t, "TransformBatch("+tc.name+")", fn)
		}
	}
}
