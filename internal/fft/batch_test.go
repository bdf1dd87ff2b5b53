package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// The batch drivers promise bit-identical results to the serial loops:
// every worker runs the same per-row Transform, so fanning rows, planes or
// column blocks out over host cores cannot change a single bit. Every
// equivalence check in this file therefore compares bit patterns
// (sameBits), not a tolerance and not ==, which would take -0 for +0; the
// inputs hold exact zeros so signed zeros occur.

// batchTestLengths covers the kernel families: trivial, pure radix-2/4,
// radix-8 eligible, mixed with odd primes, the dense generic stage (7, 11,
// 13), and Bluestein. The radix-3 and radix-5 butterflies appear in every
// position a stage can take: first (15, 45, 60, 120, 486), in the middle
// (135, 225 and 486 for radix 3; 250 and 375 for radix 5), and last (3, 5,
// 15, 25, 45, 75, 125, 135, 225, 375).
var batchTestLengths = []int{1, 2, 3, 4, 5, 8, 15, 25, 45, 60, 64, 75, 77, 90, 97,
	120, 125, 128, 135, 143, 225, 250, 375, 486}

// TestTransformRowsSoAMatchesTransformManyExact drives the batched row
// path (TransformBatch, host parallelism on; the row kernel that once
// staged rows through a planar scratch) over randomized row counts,
// including partial tail chunks and counts below one grain, for every
// length of batchTestLengths under each radix policy, against the same
// plan's TransformMany.
func TestTransformRowsSoAMatchesTransformManyExact(t *testing.T) {
	defer par.SetEnabled(true)
	par.SetEnabled(true)
	rng := rand.New(rand.NewSource(5))
	for _, n := range batchTestLengths {
		for _, r := range []radix{radixMixed, radix8, radixAuto} {
			p := newPlanRadix(n, r)
			for _, sign := range []Sign{Forward, Backward} {
				rows := 1 + rng.Intn(2*grainBatchSticks+5)
				data := randVecZeros(rng, n*rows)
				want := append([]complex128(nil), data...)
				p.TransformMany(want, rows, sign)
				p.TransformBatch(data, rows, sign)
				if i := firstBitDiff(data, want); i >= 0 {
					t.Fatalf("n=%d radix=%v sign=%d rows=%d i=%d: batch %v != many %v", n, r, sign, rows, i, data[i], want[i])
				}
			}
		}
	}
}

// TestTransformBatchMatchesManyExact checks that turning host parallelism
// off moves no bit of TransformBatch's output, for a row count that spans
// two grains and a partial tail.
func TestTransformBatchMatchesManyExact(t *testing.T) {
	defer par.SetEnabled(true)
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{60, 97, 120, 128, 486} {
		for _, sign := range []Sign{Forward, Backward} {
			p := newPlanRadix(n, radixAuto)
			rows := 2*grainBatchSticks + 3
			data := randVecZeros(rng, n*rows)
			want := append([]complex128(nil), data...)
			p.TransformMany(want, rows, sign)
			par.SetEnabled(true)
			p.TransformBatch(data, rows, sign)
			if i := firstBitDiff(data, want); i >= 0 {
				t.Fatalf("n=%d sign=%d i=%d: batch %v != many %v", n, sign, i, data[i], want[i])
			}
			// The disabled path is the serial reference; results must not
			// move.
			par.SetEnabled(false)
			p.TransformBatch(data, rows, sign)
			par.SetEnabled(true)
			p.TransformBatch(want, rows, sign)
			if i := firstBitDiff(data, want); i >= 0 {
				t.Fatalf("n=%d sign=%d i=%d: hostpar on/off differ: %v != %v", n, sign, i, data[i], want[i])
			}
		}
	}
}

// transformColumn is the per-column reference of the 2-D column pass:
// gather column iy of a row-major ·×ny plane, Transform it contiguously,
// scatter it back.
func transformColumn(p *Plan, plane []complex128, iy, ny int, sign Sign) {
	col := make([]complex128, p.N())
	for i := range col {
		col[i] = plane[i*ny+iy]
	}
	p.Transform(col, sign)
	for i, v := range col {
		plane[i*ny+iy] = v
	}
}

// TestPlan2DColumnPassMatchesStridedExact pins the 2-D column pass: the
// blocked gather must agree bit for bit with gathering each column alone
// and transforming it contiguously.
func TestPlan2DColumnPassMatchesStridedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range [][2]int{{45, 60}, {60, 45}, {128, 30}, {486, 33},
		{3, 7}, {5, 40}, {15, 9}, {75, 33}, {90, 20}, {120, 36}, {135, 5}, {225, 34}, {250, 3}} {
		nx, ny := dims[0], dims[1]
		p := NewPlan2D(nx, ny)
		for _, sign := range []Sign{Forward, Backward} {
			plane := randVecZeros(rng, nx*ny)
			want := append([]complex128(nil), plane...)
			for iy := 0; iy < ny; iy++ {
				transformColumn(p.px, want, iy, ny, sign)
			}
			p.colRange(plane, sign, 0, p.colBlocks())
			if i := firstBitDiff(plane, want); i >= 0 {
				t.Fatalf("nx=%d ny=%d sign=%d i=%d: cols %v != strided %v", nx, ny, sign, i, plane[i], want[i])
			}
		}
	}
}

// TestPlan2D3DHostParPathsExact pins the host-parallelism contract of the
// plane and box batches: three items fanned out over cores (host
// parallelism on) and run in a serial loop (off) give bit-identical
// results.
func TestPlan2D3DHostParPathsExact(t *testing.T) {
	defer par.SetEnabled(true)
	rng := rand.New(rand.NewSource(9))
	const items = 3
	// exact compares the fan-out (par on) with the serial reference (off).
	exact := func(name string, p batchPlan) {
		t.Helper()
		for _, sign := range []Sign{Forward, Backward} {
			got := randVecZeros(rng, items*p.Size())
			ref := append([]complex128(nil), got...)
			par.SetEnabled(false)
			p.TransformBatch(ref, items, sign)
			par.SetEnabled(true)
			p.TransformBatch(got, items, sign)
			if i := firstBitDiff(got, ref); i >= 0 {
				t.Fatalf("%s sign=%d: fan-out diverges at %d: %v != %v", name, sign, i, got[i], ref[i])
			}
		}
	}
	for _, d := range [][2]int{{60, 45}, {75, 15}, {120, 120}, {135, 25}, {225, 3}, {5, 90}} {
		exact(fmt.Sprintf("Plan2D(%d,%d)", d[0], d[1]), NewPlan2D(d[0], d[1]))
	}
	for _, d := range [][3]int{{20, 18, 24}, {15, 25, 9}, {3, 5, 75}} {
		exact(fmt.Sprintf("Plan3D(%d,%d,%d)", d[0], d[1], d[2]), NewPlan3D(d[0], d[1], d[2]))
	}
}

// TestVariantPlansMatchDFT validates the radix-8 family against the naive
// DFT, whose summation order differs, so the check is tolerance-based.
func TestVariantPlansMatchDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		n int
		r radix
	}{
		{64, radix8}, {128, radix8}, {120, radix8}, {486, radix8},
		{100, radix8}, // not divisible by 8: degrades to mixed
	} {
		p := newPlanRadix(tc.n, tc.r)
		x := randVec(rng, tc.n)
		got := append([]complex128(nil), x...)
		p.Transform(got, Forward)
		want := DFT(x, Forward)
		for i := range got {
			if d := got[i] - want[i]; math.Hypot(real(d), imag(d)) > 1e-8*float64(tc.n) {
				t.Fatalf("n=%d radix=%v i=%d: %v != DFT %v", tc.n, tc.r, i, got[i], want[i])
			}
		}
	}
}

// TestPickPolicies pins the measured per-shape radix policy (see the
// rationale comments on PickRadix and mixedMinPow2).
func TestPickPolicies(t *testing.T) {
	cases := []struct {
		n     int
		radix radix
	}{
		{64, radix8},       // small pow2: radix-8 removes a pass
		{128, radixMixed},  // pow2 from mixedMinPow2 on
		{256, radixMixed},  // ditto
		{4096, radixMixed}, // kernel_batch's p4096
		{120, radix8},      // 8·odd: radix-8 removes passes
		{60, radixMixed},   // not divisible by 8
		{97, radixMixed},   // Bluestein: the radix selects nothing
	}
	for _, tc := range cases {
		if got := PickRadix(tc.n); got != tc.radix {
			t.Errorf("PickRadix(%d) = %v, want %v", tc.n, got, tc.radix)
		}
		if p := DefaultCache.Get(tc.n); p.radix != tc.radix {
			t.Errorf("DefaultCache.Get(%d) built %v, want %v", tc.n, p.radix, tc.radix)
		}
	}
}

// TestPolicyReachesEveryKernel pins the set of kernels the plan policy can
// select: over the lengths a Cache serves, the cells it builds are exactly
// every named radix family plus Bluestein — three today. A variant that
// PickRadix never picks fails here when its constant is added, and a cell
// the policy stops picking fails here until its kernel is deleted.
func TestPolicyReachesEveryKernel(t *testing.T) {
	want := map[string]bool{"bluestein": true}
	for r := radixAuto + 1; r.String() != "unknown"; r++ {
		want[r.String()] = true
	}
	if len(want) != 3 {
		t.Fatalf("%d kernel cells declared, want 3 (mixed, radix-8, Bluestein): %v", len(want), want)
	}
	var c Cache
	got := map[string]bool{}
	for n := 1; n <= 512; n++ {
		p := c.Get(n)
		cell := p.radix.String()
		if p.blu != nil {
			if p.stages != nil {
				t.Fatalf("n=%d: Bluestein plan with %d stages", n, len(p.stages))
			}
			cell = "bluestein" // the radix of a plan without stages selects nothing
		}
		if !want[cell] {
			t.Fatalf("n=%d: the policy selected %q, not a kernel this package declares", n, cell)
		}
		got[cell] = true
	}
	for cell := range want {
		if !got[cell] {
			t.Errorf("no length in 1..512 selects %q: the policy cannot reach it", cell)
		}
	}
}
