package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// recursivePlan is the pre-iterative kernel of this package, kept verbatim
// as a test-only baseline: the correctness tests cross-check the iterative
// kernel against it, and the BenchmarkKernel_* pairs record the speedup of
// the rewrite in BENCH_fft.json (see scripts/bench-json.sh).
type recursivePlan struct {
	n       int
	factors []int
	root    []complex128 // root[j] = exp(-2πi j/n)
}

func newRecursivePlan(n int) *recursivePlan {
	fs, ok := factorize(n, radixMixed)
	if !ok {
		panic("recursivePlan: length needs Bluestein")
	}
	p := &recursivePlan{n: n, factors: fs}
	p.root = make([]complex128, n)
	for j := range p.root {
		p.root[j] = cmplx.Exp(complex(0, -2*math.Pi*float64(j)/float64(n)))
	}
	return p
}

func (p *recursivePlan) transform(x []complex128, sign Sign) {
	if p.n == 1 {
		return
	}
	sp := make([]complex128, p.n)
	p.recurse(sp, x, p.n, 1, sign)
	copy(x, sp)
}

func (p *recursivePlan) recurse(dst, src []complex128, n, stride int, sign Sign) {
	if n == 1 {
		dst[0] = src[0]
		return
	}
	r := p.factorOf(n)
	m := n / r
	for q := 0; q < r; q++ {
		p.recurse(dst[q*m:(q+1)*m], src[q*stride:], m, stride*r, sign)
	}
	step := p.n / n
	var tmp [maxDirectRadix]complex128
	for k1 := 0; k1 < m; k1++ {
		for q := 0; q < r; q++ {
			tmp[q] = dst[q*m+k1] * p.twiddle(step*q*k1, sign)
		}
		switch r {
		case 2:
			a, b := tmp[0], tmp[1]
			dst[k1] = a + b
			dst[k1+m] = a - b
		case 4:
			a, b, c, d := tmp[0], tmp[1], tmp[2], tmp[3]
			t0, t1 := a+c, a-c
			t2, t3 := b+d, b-d
			var jt complex128
			if sign == Forward {
				jt = complex(imag(t3), -real(t3))
			} else {
				jt = complex(-imag(t3), real(t3))
			}
			dst[k1] = t0 + t2
			dst[k1+m] = t1 + jt
			dst[k1+2*m] = t0 - t2
			dst[k1+3*m] = t1 - jt
		default:
			var out [maxDirectRadix]complex128
			for j := 0; j < r; j++ {
				acc := tmp[0]
				for q := 1; q < r; q++ {
					acc += tmp[q] * p.twiddle(step*m*((j*q)%r)%p.n, sign)
				}
				out[j] = acc
			}
			for j := 0; j < r; j++ {
				dst[k1+j*m] = out[j]
			}
		}
	}
}

func (p *recursivePlan) twiddle(idx int, sign Sign) complex128 {
	w := p.root[idx%p.n]
	if sign == Backward {
		return cmplx.Conj(w)
	}
	return w
}

func (p *recursivePlan) factorOf(n int) int {
	for _, r := range p.factors {
		if r > 1 && n%r == 0 {
			return r
		}
	}
	panic("recursivePlan: no factor")
}

// The iterative kernel must agree with the recursive baseline to rounding
// error on every mixed-radix shape.
func TestIterativeMatchesRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{2, 3, 4, 5, 6, 8, 12, 16, 20, 21, 32, 45, 48, 60, 64,
		77, 90, 91, 96, 100, 120, 121, 125, 128, 144, 169, 486, 512}
	for _, n := range sizes {
		p := NewPlan(n)
		rp := newRecursivePlan(n)
		for _, sign := range []Sign{Forward, Backward} {
			x := randVec(rng, n)
			got := append([]complex128(nil), x...)
			want := append([]complex128(nil), x...)
			p.Transform(got, sign)
			rp.transform(want, sign)
			if d := maxDiff(got, want); d > 1e-9*float64(n) {
				t.Fatalf("n=%d sign=%d: iterative vs recursive diff %g", n, sign, d)
			}
		}
	}
}
