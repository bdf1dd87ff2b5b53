package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Exhaustive DFT comparison for every length 65..160 (the small-size range
// is covered in fft_test.go) — exercises every radix mix and the Bluestein
// path for all primes in the range.
func TestTransformMatchesDFTExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive size sweep")
	}
	rng := rand.New(rand.NewSource(21))
	for n := 65; n <= 160; n++ {
		p := NewPlan(n)
		x := randVec(rng, n)
		want := DFT(x, Forward)
		got := append([]complex128(nil), x...)
		p.Transform(got, Forward)
		if d := maxDiff(got, want); d > 1e-8*float64(n) {
			t.Fatalf("n=%d: max diff %g", n, d)
		}
	}
}

// Shift theorem: delaying the input by s multiplies bin k by exp(-2πi ks/n).
func TestShiftTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n, s = 40, 7
	p := NewPlan(n)
	x := randVec(rng, n)
	shifted := make([]complex128, n)
	for j := range shifted {
		shifted[j] = x[(j-s+n)%n]
	}
	fx := append([]complex128(nil), x...)
	fs := append([]complex128(nil), shifted...)
	p.Transform(fx, Forward)
	p.Transform(fs, Forward)
	for k := 0; k < n; k++ {
		w := cmplx.Exp(complex(0, -2*math.Pi*float64(k*s)/float64(n)))
		if d := cmplx.Abs(fs[k] - w*fx[k]); d > 1e-9 {
			t.Fatalf("shift theorem violated at bin %d: %g", k, d)
		}
	}
}

// Convolution theorem: FFT(x ⊛ y) = FFT(x)·FFT(y) for circular convolution.
func TestConvolutionTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 30
	p := NewPlan(n)
	x, y := randVec(rng, n), randVec(rng, n)
	conv := make([]complex128, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			conv[i] += x[j] * y[(i-j+n)%n]
		}
	}
	fx := append([]complex128(nil), x...)
	fy := append([]complex128(nil), y...)
	fc := append([]complex128(nil), conv...)
	p.Transform(fx, Forward)
	p.Transform(fy, Forward)
	p.Transform(fc, Forward)
	for k := 0; k < n; k++ {
		if d := cmplx.Abs(fc[k] - fx[k]*fy[k]); d > 1e-7 {
			t.Fatalf("convolution theorem violated at bin %d: %g", k, d)
		}
	}
}

// Conjugation symmetry: real input gives a Hermitian spectrum on the
// complex plan.
func TestRealInputHermitianSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n = 36
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	NewPlan(n).Transform(x, Forward)
	for k := 1; k < n; k++ {
		if d := cmplx.Abs(x[k] - cmplx.Conj(x[n-k])); d > 1e-9 {
			t.Fatalf("spectrum not Hermitian at %d: %g", k, d)
		}
	}
}

// 3-D Parseval: energy is conserved (up to the 1/N convention) through the
// composed 3-D transform.
func TestPlan3DParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	nx, ny, nz := 6, 5, 4
	n := nx * ny * nz
	p := NewPlan3D(nx, ny, nz)
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
	if math.Abs(sx-sX/float64(n)) > 1e-9*sx {
		t.Fatalf("3D Parseval violated: %g vs %g", sx, sX/float64(n))
	}
}

// The 2-D transform must be separable: transforming rows then columns by
// hand equals Plan2D.
func TestPlan2DAgreesWithManualSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	nx, ny := 9, 8
	plane := randVec(rng, nx*ny)
	manual := append([]complex128(nil), plane...)
	py, px := NewPlan(ny), NewPlan(nx)
	for ix := 0; ix < nx; ix++ {
		py.Transform(manual[ix*ny:(ix+1)*ny], Forward)
	}
	for iy := 0; iy < ny; iy++ {
		transformColumn(px, manual, iy, ny, Forward)
	}
	NewPlan2D(nx, ny).Transform(plane, Forward)
	if d := maxDiff(plane, manual); d > 1e-9 {
		t.Fatalf("2D disagreement %g", d)
	}
}
