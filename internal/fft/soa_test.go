package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// The planar (SoA) code path promises bit-identical results to the AoS
// path: both layouts run the same butterfly bodies, and float64 loads and
// stores are exact, so staging through the planar scratch cannot change a
// single bit. Every equivalence check in this file therefore compares bit
// patterns (sameBits), not a tolerance and not ==, which would take -0 for
// +0; the inputs hold exact zeros so signed zeros occur.

// soaTestLengths covers the kernel families: trivial, pure radix-2/4,
// radix-8 eligible, mixed with odd primes, the dense generic stage (7, 11,
// 13), and Bluestein. The radix-3 and radix-5 butterflies appear in every
// position a stage can take: fused into the pack (15, 45, 60, 120, 486),
// as a middle stage run over the whole chunk (135, 225 and 486 for radix 3;
// 250 and 375 for radix 5), and as the final stage that runs in place
// before the plain copy-out (3, 5, 15, 25, 45, 75, 125, 135, 225, 375).
var soaTestLengths = []int{1, 2, 3, 4, 5, 8, 15, 25, 45, 60, 64, 75, 77, 90, 97,
	120, 125, 128, 135, 143, 225, 250, 375, 486}

// TestTransformRowsSoAMatchesTransformManyExact drives the batched planar
// chunk kernel (the TransformBatch fast path) over randomized row counts,
// including partial tail chunks and counts below one chunk, for every
// radix variant that promises bit identity.
func TestTransformRowsSoAMatchesTransformManyExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range soaTestLengths {
		for _, r := range []radix{radixMixed, radix8, radixAuto} {
			p := newPlanRadix(n, r)
			for _, sign := range []Sign{Forward, Backward} {
				rows := 1 + rng.Intn(2*soaChunkRows+5)
				data := randVecZeros(rng, n*rows)
				want := append([]complex128(nil), data...)
				p.TransformMany(want, rows, sign)
				p.transformRowsSoA(data, rows, sign)
				if i := firstBitDiff(data, want); i >= 0 {
					t.Fatalf("n=%d radix=%v sign=%d rows=%d i=%d: %v != %v", n, r, sign, rows, i, data[i], want[i])
				}
			}
		}
	}
}

func TestTransformBatchMatchesManyExact(t *testing.T) {
	defer par.SetEnabled(true)
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{60, 97, 120, 128, 486} {
		p := newPlanRadix(n, radixAuto)
		rows := 2*soaChunkRows + 3
		data := randVecZeros(rng, n*rows)
		want := append([]complex128(nil), data...)
		p.TransformMany(want, rows, Forward)
		par.SetEnabled(true)
		p.TransformBatch(data, rows, Forward)
		if i := firstBitDiff(data, want); i >= 0 {
			t.Fatalf("n=%d i=%d: batch %v != many %v", n, i, data[i], want[i])
		}
		// The disabled path is the serial reference; results must not move.
		data2 := append([]complex128(nil), want...)
		p.TransformBatch(data2, rows, Backward)
		par.SetEnabled(false)
		want2 := append([]complex128(nil), want...)
		p.TransformBatch(want2, rows, Backward)
		par.SetEnabled(true)
		if i := firstBitDiff(data2, want2); i >= 0 {
			t.Fatalf("n=%d i=%d: hostpar on/off differ: %v != %v", n, i, data2[i], want2[i])
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

// TestTransformColsSoAMatchesStridedExact pins the 2-D column pass: the
// strided planar pack must agree bit for bit with gathering each column
// and transforming it contiguously.
func TestTransformColsSoAMatchesStridedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range [][2]int{{45, 60}, {60, 45}, {128, 30}, {486, 33},
		{3, 7}, {5, 40}, {15, 9}, {75, 33}, {90, 20}, {120, 36}, {135, 5}, {225, 34}, {250, 3}} {
		nx, ny := dims[0], dims[1]
		p := newPlanRadix(nx, radixAuto)
		if !p.planar() {
			t.Fatalf("nx=%d: expected a planar-path plan", nx)
		}
		for _, sign := range []Sign{Forward, Backward} {
			plane := randVecZeros(rng, nx*ny)
			want := append([]complex128(nil), plane...)
			for iy := 0; iy < ny; iy++ {
				transformColumn(p, want, iy, ny, sign)
			}
			for iy0 := 0; iy0 < ny; iy0 += soaChunkRows {
				nb := ny - iy0
				if nb > soaChunkRows {
					nb = soaChunkRows
				}
				p.transformColsSoA(plane, ny, iy0, nb, sign)
			}
			if i := firstBitDiff(plane, want); i >= 0 {
				t.Fatalf("nx=%d ny=%d sign=%d i=%d: cols %v != strided %v", nx, ny, sign, i, plane[i], want[i])
			}
		}
	}
}

// TestPlan2D3DHostParPathsExact pins the layout contract of the plane and
// box transforms: the planar fast path (host parallelism on) and the AoS
// reference path (off) produce bit-identical results.
func TestPlan2D3DHostParPathsExact(t *testing.T) {
	defer par.SetEnabled(true)
	rng := rand.New(rand.NewSource(9))
	// exact compares the planar path (par on) with the AoS reference (off).
	exact := func(name string, size int, transform func([]complex128, Sign)) {
		t.Helper()
		for _, sign := range []Sign{Forward, Backward} {
			got := randVecZeros(rng, size)
			ref := append([]complex128(nil), got...)
			par.SetEnabled(false)
			transform(ref, sign)
			par.SetEnabled(true)
			transform(got, sign)
			if i := firstBitDiff(got, ref); i >= 0 {
				t.Fatalf("%s sign=%d: planar path diverges at %d: %v != %v", name, sign, i, got[i], ref[i])
			}
		}
	}
	for _, d := range [][2]int{{60, 45}, {75, 15}, {120, 120}, {135, 25}, {225, 3}, {5, 90}} {
		p := NewPlan2D(d[0], d[1])
		exact(fmt.Sprintf("Plan2D(%d,%d)", d[0], d[1]), d[0]*d[1], p.Transform)
	}
	for _, d := range [][3]int{{20, 18, 24}, {15, 25, 9}, {3, 5, 75}} {
		p := NewPlan3D(d[0], d[1], d[2])
		exact(fmt.Sprintf("Plan3D(%d,%d,%d)", d[0], d[1], d[2]), d[0]*d[1]*d[2], p.Transform)
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

// TestPickPolicies pins the measured per-shape variant policy (see the
// rationale comments on PickRadix and PickLayout).
func TestPickPolicies(t *testing.T) {
	cases := []struct {
		n      int
		radix  radix
		layout layout
	}{
		{64, radix8, layoutAoS},      // small pow2: AoS radix-8 is L1-resident
		{128, radixMixed, layoutSoA}, // large pow2: planar radix-4 + fused unpack
		{120, radix8, layoutSoA},     // 8·odd: radix-8 removes passes, planar wins
		{60, radixMixed, layoutSoA},  // odd factors: generic stages batch best planar
		{97, radixMixed, layoutAoS},  // Bluestein: chirp convolution runs AoS
	}
	for _, tc := range cases {
		if got := PickRadix(tc.n); got != tc.radix {
			t.Errorf("PickRadix(%d) = %v, want %v", tc.n, got, tc.radix)
		}
		if got := PickLayout(tc.n); got != tc.layout {
			t.Errorf("PickLayout(%d) = %v, want %v", tc.n, got, tc.layout)
		}
		p := DefaultCache.Get(tc.n)
		if p.radix != tc.radix || p.layout != tc.layout {
			t.Errorf("DefaultCache.Get(%d) built (%v, %v), want (%v, %v)",
				tc.n, p.radix, p.layout, tc.radix, tc.layout)
		}
	}
}

// TestPolicyReachesEveryKernel pins the set of kernels the plan policy can
// select: over the lengths a Cache serves, the cells it builds are exactly
// every named radix family in both layouts, plus Bluestein — five today. A
// variant that PickRadix/PickLayout never pick fails here when its constant
// is added, and a cell the policy stops picking fails here until its kernel
// is deleted.
func TestPolicyReachesEveryKernel(t *testing.T) {
	want := map[string]bool{"bluestein": true}
	for r := radixAuto + 1; r.String() != "unknown"; r++ {
		for _, l := range []layout{layoutAoS, layoutSoA} {
			want[r.String()+"/"+l.String()] = true
		}
	}
	if len(want) != 5 {
		t.Fatalf("%d kernel cells declared, want 5 (mixed, radix-8) x (AoS, SoA) + Bluestein: %v", len(want), want)
	}
	var c Cache
	got := map[string]bool{}
	for n := 1; n <= 512; n++ {
		p := c.Get(n)
		cell := p.radix.String() + "/" + p.layout.String()
		if p.blu != nil {
			if p.layout != layoutAoS || p.stages != nil {
				t.Fatalf("n=%d: Bluestein plan with layout %v and %d stages", n, p.layout, len(p.stages))
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
