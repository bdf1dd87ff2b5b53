package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

func randVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// All lengths 1..64 plus selected mixed-radix, prime and Bluestein sizes
// must match the naive DFT in both directions.
func TestTransformMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{}
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 90, 96, 100, 120, 125, 128, 135, 144, 150,
		97, 101, 127, // large primes -> Bluestein
		77, 91, 121, 169, // products of 7/11/13 -> direct odd radices
		486, 500, 512)
	for _, n := range sizes {
		p := NewPlan(n)
		for _, sign := range []Sign{Forward, Backward} {
			x := randVec(rng, n)
			want := DFT(x, sign)
			got := append([]complex128(nil), x...)
			p.Transform(got, sign)
			if d := maxDiff(got, want); d > 1e-8*float64(n) {
				t.Fatalf("n=%d sign=%d: max diff %g", n, sign, d)
			}
		}
	}
}

func TestRoundTripIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 12, 60, 120, 101, 240} {
		p := NewPlan(n)
		x := randVec(rng, n)
		y := append([]complex128(nil), x...)
		p.Transform(y, Forward)
		p.Transform(y, Backward)
		Scale(y, 1/float64(n))
		if d := maxDiff(x, y); d > 1e-10*float64(n) {
			t.Fatalf("n=%d: roundtrip diff %g", n, d)
		}
	}
}

// Property: linearity. FFT(a·x + b·y) = a·FFT(x) + b·FFT(y).
func TestPropertyLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewPlan(48)
	f := func(ar, ai, br, bi int8) bool {
		a := complex(float64(ar)/16, float64(ai)/16)
		b := complex(float64(br)/16, float64(bi)/16)
		x := randVec(rng, 48)
		y := randVec(rng, 48)
		lhs := make([]complex128, 48)
		for i := range lhs {
			lhs[i] = a*x[i] + b*y[i]
		}
		p.Transform(lhs, Forward)
		fx := append([]complex128(nil), x...)
		fy := append([]complex128(nil), y...)
		p.Transform(fx, Forward)
		p.Transform(fy, Forward)
		for i := range fx {
			if cmplx.Abs(lhs[i]-(a*fx[i]+b*fy[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval. sum |x|² = (1/n) sum |X|².
func TestPropertyParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{16, 45, 101, 120} {
		p := NewPlan(n)
		for trial := 0; trial < 5; trial++ {
			x := randVec(rng, n)
			var sx float64
			for _, v := range x {
				sx += real(v)*real(v) + imag(v)*imag(v)
			}
			p.Transform(x, Forward)
			var sX float64
			for _, v := range x {
				sX += real(v)*real(v) + imag(v)*imag(v)
			}
			if math.Abs(sx-sX/float64(n)) > 1e-8*sx {
				t.Fatalf("n=%d: Parseval violated: %g vs %g", n, sx, sX/float64(n))
			}
		}
	}
}

// A unit impulse transforms to the all-ones vector.
func TestImpulse(t *testing.T) {
	for _, n := range []int{8, 30, 97} {
		p := NewPlan(n)
		x := make([]complex128, n)
		x[0] = 1
		p.Transform(x, Forward)
		for k, v := range x {
			if cmplx.Abs(v-1) > 1e-10 {
				t.Fatalf("n=%d: impulse FFT[%d] = %v", n, k, v)
			}
		}
	}
}

// A pure exponential exp(+2πi·f·j/n) forward-transforms to n·δ[f].
func TestPureTone(t *testing.T) {
	n, f := 40, 7
	x := make([]complex128, n)
	for j := range x {
		x[j] = cmplx.Exp(complex(0, 2*math.Pi*float64(f*j)/float64(n)))
	}
	NewPlan(n).Transform(x, Forward)
	for k, v := range x {
		want := complex128(0)
		if k == f {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-8 {
			t.Fatalf("tone bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestTransformMany(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPlan(12)
	const count = 7
	data := randVec(rng, 12*count)
	want := make([]complex128, 0, len(data))
	for b := 0; b < count; b++ {
		want = append(want, DFT(data[b*12:(b+1)*12], Forward)...)
	}
	p.TransformMany(data, count, Forward)
	if d := maxDiff(data, want); d > 1e-9 {
		t.Fatalf("batched diff %g", d)
	}
}

func TestPlan2DMatchesRowColumnDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nx, ny := 6, 10
	plane := randVec(rng, nx*ny)
	want := append([]complex128(nil), plane...)
	// Reference: DFT rows then columns.
	for ix := 0; ix < nx; ix++ {
		copy(want[ix*ny:(ix+1)*ny], DFT(want[ix*ny:(ix+1)*ny], Forward))
	}
	for iy := 0; iy < ny; iy++ {
		col := make([]complex128, nx)
		for ix := range col {
			col[ix] = want[ix*ny+iy]
		}
		col = DFT(col, Forward)
		for ix := range col {
			want[ix*ny+iy] = col[ix]
		}
	}
	NewPlan2D(nx, ny).Transform(plane, Forward)
	if d := maxDiff(plane, want); d > 1e-9 {
		t.Fatalf("2D diff %g", d)
	}
}

func TestPlan3DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nx, ny, nz := 4, 5, 6
	p := NewPlan3D(nx, ny, nz)
	x := randVec(rng, nx*ny*nz)
	y := append([]complex128(nil), x...)
	p.Transform(y, Forward)
	p.Transform(y, Backward)
	Scale(y, 1/float64(nx*ny*nz))
	if d := maxDiff(x, y); d > 1e-9 {
		t.Fatalf("3D roundtrip diff %g", d)
	}
}

// The 3-D transform of a separable product equals the product of 1-D
// transforms.
func TestPlan3DSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	nx, ny, nz := 3, 4, 5
	ax, ay, az := randVec(rng, nx), randVec(rng, ny), randVec(rng, nz)
	box := make([]complex128, nx*ny*nz)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				box[(ix*ny+iy)*nz+iz] = ax[ix] * ay[iy] * az[iz]
			}
		}
	}
	NewPlan3D(nx, ny, nz).Transform(box, Forward)
	fx, fy, fz := DFT(ax, Forward), DFT(ay, Forward), DFT(az, Forward)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				want := fx[ix] * fy[iy] * fz[iz]
				got := box[(ix*ny+iy)*nz+iz]
				if cmplx.Abs(got-want) > 1e-8 {
					t.Fatalf("separable mismatch at (%d,%d,%d): %v vs %v", ix, iy, iz, got, want)
				}
			}
		}
	}
}

func TestGoodSize(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 7: 8, 11: 12, 13: 15, 17: 18, 31: 32,
		97: 100, 113: 120, 121: 125, 241: 243}
	for n, want := range cases {
		if got := GoodSize(n); got != want {
			t.Fatalf("GoodSize(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFlopsPositiveAndGrowing(t *testing.T) {
	prev := 0.0
	for _, n := range []int{8, 16, 32, 64, 128, 120, 97} {
		f := NewPlan(n).Flops()
		if f <= 0 {
			t.Fatalf("flops(%d) = %v", n, f)
		}
		_ = prev
	}
	// Power-of-two plans should be within 2x of the 5 n log2 n rule.
	for _, n := range []int{64, 256, 1024} {
		f := NewPlan(n).Flops()
		ref := 5 * float64(n) * math.Log2(float64(n))
		if f < ref/2 || f > ref*2 {
			t.Fatalf("flops(%d) = %v, reference %v", n, f, ref)
		}
	}
}

// TestFlopsModelPinned pins the analytic flop model at its values from
// before radix 3 and 5 had their own butterflies. The simulator's cost mode
// charges instructions from these counts, so a kernel change that moved
// them would move every simulated number; the model is a cost estimate,
// not a count of the operations the kernels happen to run.
func TestFlopsModelPinned(t *testing.T) {
	for _, tc := range []struct {
		n           int
		mixed, auto float64 // NewPlan, and the policy plan a Cache builds
	}{
		{3, 32, 32},
		{5, 64, 64},
		{10, 208, 208},
		{60, 2008, 2008},
		{120, 4976, 4436},
		{1009, 388880, 388880},
	} {
		if got := NewPlan(tc.n).Flops(); got != tc.mixed {
			t.Errorf("NewPlan(%d).Flops() = %v, want %v", tc.n, got, tc.mixed)
		}
		if got := DefaultCache.Get(tc.n).Flops(); got != tc.auto {
			t.Errorf("DefaultCache.Get(%d).Flops() = %v, want %v", tc.n, got, tc.auto)
		}
	}
	if got := NewPlan2D(120, 120).Flops(); got != 1064640 {
		t.Errorf("NewPlan2D(120, 120).Flops() = %v, want 1064640", got)
	}
	if got := NewPlan3D(32, 32, 32).Flops(); got != 2310144 {
		t.Errorf("NewPlan3D(32, 32, 32).Flops() = %v, want 2310144", got)
	}
}

func TestPlanPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPlan(0)
}

func TestTransformPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPlan(8).Transform(make([]complex128, 7), Forward)
}

// A one-item TransformBatch fans its own passes out over par: the rows (z
// sticks) as a row batch, then the column blocks (plane groups). It must
// match the serial Transform bit for bit at every worker count, on shapes
// whose row, block and group counts do not divide by the worker count.
func TestOneItemBatchBitIdentical(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	var plans []batchPlan
	for _, d := range [][2]int{{120, 120}, {60, 60}, {48, 45}, {7, 13}} {
		plans = append(plans, NewPlan2D(d[0], d[1]))
	}
	for _, d := range [][3]int{{32, 32, 32}, {16, 16, 16}, {20, 18, 24}, {9, 10, 11}} {
		plans = append(plans, NewPlan3D(d[0], d[1], d[2]))
	}
	rng := rand.New(rand.NewSource(11))
	for _, w := range []int{2, 3, 4} {
		par.SetWorkers(w)
		for _, p := range plans {
			x := randVecZeros(rng, p.Size())
			for _, sign := range []Sign{Forward, Backward} {
				want := append([]complex128(nil), x...)
				p.Transform(want, sign)
				got := append([]complex128(nil), x...)
				p.TransformBatch(got, 1, sign)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("workers %d, %T of %d, sign %d: element %d = %v, Transform gives %v",
						w, p, p.Size(), sign, i, got[i], want[i])
				}
			}
		}
	}
}

// batchPlan is the surface Plan2D and Plan3D share.
type batchPlan interface {
	batchTransformer
	Transform(data []complex128, sign Sign)
	Size() int
}
