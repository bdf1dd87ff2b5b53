// Package fft is a from-scratch complex-to-complex fast Fourier transform
// library standing in for FFTW in the FFTXlib reproduction. It provides
// mixed-radix (2/3/4/5 and small odd primes) Cooley-Tukey transforms,
// Bluestein's algorithm for lengths with large prime factors, batched 1-D
// drivers for the Z-sticks stage (the cft_1z equivalent) and 2-D plane
// drivers for the XY stage (cft_2xy), plus analytic floating-point
// operation counts that feed the KNL cost model.
//
// The hot kernel is iterative and table-driven: a plan precomputes the
// digit-reversal permutation of its factorization and one forward twiddle
// table per stage, so the per-transform inner loops contain no modular
// reductions and no recursion — only table lookups and the radix
// butterflies (specialized for radix 2, 3, 4, 5 and 8; the dense r-point
// DFT matrix serves only the rarer primes 7, 11 and 13).
//
// Every kernel runs one direction, Forward. Backward is the forward
// transform on swapped parts: with swap(a+ib) = b+ia, Backward(x) =
// swap(Forward(swap(x))) holds exactly, bit for bit (Duhamel, Piron &
// Etcheto, IEEE TASSP 1988), because swapping the parts of an operand
// conjugates its product with a twiddle without rounding anything. The
// swap happens only at the boundary, in Plan.Transform's permuting gather
// and copy-out. Bluestein lengths are the exception: the chirp
// convolution keeps its own backward chirp kernel, because swapping around
// it would reorder its inner forward/backward pair and move bits.
//
// Sign convention: Forward applies X[k] = sum_j x[j]·exp(-2πi·jk/n) and
// Backward the conjugate kernel; neither scales, so Backward(Forward(x))
// equals n·x. Use Scale for normalization (Quantum ESPRESSO applies 1/N on
// the forward real-to-reciprocal direction).
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// Sign selects the transform direction.
type Sign int

const (
	// Forward uses the exp(-2πi jk/n) kernel.
	Forward Sign = -1
	// Backward uses the exp(+2πi jk/n) kernel.
	Backward Sign = +1
)

// maxDirectRadix is the largest prime handled by the generic Cooley-Tukey
// butterfly; larger prime factors switch the whole plan to Bluestein.
const maxDirectRadix = 13

// stage is one iterative combine pass: it merges groups of r sub-transforms
// of length m into transforms of length r·m, for every block of the buffer.
// Its tables are forward only; Backward reaches them through the swap.
type stage struct {
	r, m int
	// tw holds the input twiddles w^(q·k1), w = exp(-2πi/(r·m)), laid out
	// as tw[(r-1)·k1 + q-1] for q in [1,r) so the inner loop over q reads
	// consecutively.
	tw []complex128
	// wr is the dense r-point DFT matrix exp(-2πi·(j·q mod r)/r) at
	// wr[j·r+q], used by the generic small-prime butterfly of the radices
	// 7, 11 and 13 (nil for the specialized radices 2, 3, 4, 5 and 8).
	wr []complex128
}

// Plan is a reusable transform of one length. A Plan is safe for concurrent
// use; per-call scratch comes from an internal pool.
type Plan struct {
	n       int
	factors []int
	perm    []int   // perm[i] = digit-reversed source index of work cell i
	stages  []stage // bottom-up combine passes (smallest sub-length first)
	blu     *bluestein
	radix   radix // the radix policy the plan was built with
	flops   float64
	scratch sync.Pool
	rows    fan // the row fan-out of TransformBatch
}

// NewPlan creates a plan for transforms of length n with the legacy
// mixed-radix (radix-4 preference) factorization — the bit-identical
// baseline every other variant is validated against.
func NewPlan(n int) *Plan { return newPlanRadix(n, radixMixed) }

// newPlanRadix creates a plan for transforms of length n built with the
// given radix policy. radixAuto resolves per shape (see PickRadix);
// radix8 on a length not divisible by 8 degrades to the mixed-radix
// factorization, so every policy yields a working plan for every length.
func newPlanRadix(n int, r radix) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	if r == radixAuto {
		r = PickRadix(n)
	}
	p := &Plan{n: n, radix: r}
	p.scratch.New = func() any {
		s := make([]complex128, n)
		return &s
	}
	p.rows.init(p.rowRange)
	fs, ok := factorize(n, r)
	if !ok {
		p.blu = newBluestein(n)
		p.flops = p.blu.flops()
		return p
	}
	p.factors = fs
	p.flops = ctFlops(n, fs)
	p.buildPerm()
	p.buildStages()
	return p
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// Flops returns the analytic floating-point operation count of one
// transform, used by the simulation's instruction accounting.
func (p *Plan) Flops() float64 { return p.flops }

// buildPerm computes the mixed-radix digit-reversal permutation of the
// factor sequence: the leaf at decimation path (q0, q1, ...) holds source
// index q0 + q1·f0 + q2·f0·f1 + ... and lands at the contiguous work
// position it would occupy after the recursive decimation in time.
func (p *Plan) buildPerm() {
	p.perm = make([]int, p.n)
	var rec func(dst, src, n, stride, fi int)
	rec = func(dst, src, n, stride, fi int) {
		if n == 1 {
			p.perm[dst] = src
			return
		}
		r := p.factors[fi]
		m := n / r
		for q := 0; q < r; q++ {
			rec(dst+q*m, src+q*stride, m, stride*r, fi+1)
		}
	}
	rec(0, 0, p.n, 1, 0)
}

// buildStages precomputes the forward twiddle tables of every combine
// pass. Stage t (bottom-up) merges radix factors[k-1-t] with the tables
// exp(-2πi·q·k1/L); Backward uses the same tables on swapped parts.
func (p *Plan) buildStages() {
	m := 1
	for i := len(p.factors) - 1; i >= 0; i-- {
		r := p.factors[i]
		if r == 1 {
			continue
		}
		L := r * m
		st := stage{r: r, m: m, tw: make([]complex128, (r-1)*m)}
		for k1 := 0; k1 < m; k1++ {
			for q := 1; q < r; q++ {
				ang := -2 * math.Pi * float64(q*k1%L) / float64(L)
				st.tw[(r-1)*k1+q-1] = cmplx.Exp(complex(0, ang))
			}
		}
		// The other small primes (7, 11, 13) run the dense stage.
		if r != 2 && r != 3 && r != 4 && r != 5 && r != 8 {
			st.wr = make([]complex128, r*r)
			for j := 0; j < r; j++ {
				for q := 0; q < r; q++ {
					ang := -2 * math.Pi * float64(j*q%r) / float64(r)
					st.wr[j*r+q] = cmplx.Exp(complex(0, ang))
				}
			}
		}
		p.stages = append(p.stages, st)
		m = L
	}
}

// ctFlops estimates the flop count of a mixed-radix transform: each stage of
// radix r applies n/r r-point butterflies plus n twiddle multiplications
// (6 flops each). The per-butterfly charges are model constants, not counts
// of what the kernels run: 4, 16 and 60 for radix 2, 4 and 8, 14 and 34 for
// radix 3 and 5, and 8r(r-1) — the r(r-1) complex mul-adds of the dense
// matrix — for the primes 7, 11 and 13 that stageGeneric serves. The
// constants match the classic 5·n·log2(n) for pure powers of two within a
// few percent; the simulator's cost mode reads them, and
// TestFlopsModelPinned holds them fixed.
func ctFlops(n int, factors []int) float64 {
	var fl float64
	for _, r := range factors {
		var per float64
		switch r {
		case 1:
			per = 0
		case 2:
			per = 4 // 2 complex adds per 2-point group, plus twiddle below
		case 3:
			per = 14
		case 4:
			per = 16
		case 5:
			per = 34
		case 8:
			// Three radix-2 layers (24 complex adds = 48 flops) plus the
			// two non-trivial ±(√2/2)(1∓i) rotations (12 flops).
			per = 60
		default:
			per = float64(8 * r * (r - 1))
		}
		groups := float64(n) / float64(r)
		fl += groups*per + float64(n)*6 // twiddles
	}
	return fl
}

// Transform computes the in-place transform of x (length N) in the given
// direction. Backward gathers swapped parts, runs the forward stages and
// swaps them back on the way out.
func (p *Plan) Transform(x []complex128, sign Sign) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: Transform on slice of length %d, plan is %d", len(x), p.n))
	}
	if p.n == 1 {
		return
	}
	if p.blu != nil {
		p.blu.transform(x, sign)
		return
	}
	sp := p.scratch.Get().(*[]complex128)
	w := *sp
	if sign == Forward {
		for i, s := range p.perm {
			w[i] = x[s]
		}
		p.combine(w)
		copy(x, w)
	} else {
		for i, s := range p.perm {
			w[i] = swap(x[s])
		}
		p.combine(w)
		for i, v := range w {
			x[i] = swap(v)
		}
	}
	p.scratch.Put(sp)
}

// swap exchanges the real and imaginary parts of v.
func swap(v complex128) complex128 { return complex(imag(v), real(v)) }

// combine runs the iterative bottom-up combine passes over the
// digit-reversed work buffer.
func (p *Plan) combine(w []complex128) {
	for t := range p.stages {
		st := &p.stages[t]
		switch st.r {
		case 2:
			stageRadix2(w, st.m, st.tw)
		case 3:
			stageRadix3(w, st.m, st.tw)
		case 4:
			stageRadix4(w, st.m, st.tw)
		case 5:
			stageRadix5(w, st.m, st.tw)
		case 8:
			stageRadix8(w, st.m, st.tw)
		default:
			stageGeneric(w, st.r, st.m, st.tw, st.wr)
		}
	}
}

// cmul is the twiddle product (xr+i·xi)·(tr+i·ti) with the same
// intermediate roundings as the complex128 product; every specialized
// stage multiplies through it.
func cmul(xr, xi, tr, ti float64) (float64, float64) {
	return float64(xr*tr) - float64(xi*ti), float64(xi*tr) + float64(xr*ti)
}

// bfly2 is the 2-point DFT of a and the twiddled b.
func bfly2(ar, ai, br, bi float64) (x0r, x0i, x1r, x1i float64) {
	return ar + br, ai + bi, ar - br, ai - bi
}

// bfly4 is the 4-point DFT of a and the twiddled b, c, d. It returns
// x0, x2, x1, x3: each pair is finished from the same two sums, so fewer
// values are live at once.
func bfly4(ar, ai, br, bi, cr, ci, dr, di float64) (x0r, x0i, x2r, x2i, x1r, x1i, x3r, x3i float64) {
	t0r, t0i := ar+cr, ai+ci
	t1r, t1i := ar-cr, ai-ci
	t2r, t2i := br+dr, bi+di
	t3r, t3i := br-dr, bi-di
	// x1 = t1 - i·t3, x3 = t1 + i·t3.
	return t0r + t2r, t0i + t2i, t0r - t2r, t0i - t2i, t1r + t3i, t1i - t3r, t1r - t3i, t1i + t3r
}

// stageRadix2 merges pairs of length-m sub-transforms across the buffer.
func stageRadix2(w []complex128, m int, tw []complex128) {
	n := len(w)
	for o := 0; o < n; o += 2 * m {
		lo := w[o : o+m : o+m]
		hi := w[o+m : o+2*m : o+2*m]
		for k := 0; k < m; k++ {
			a, h, t := lo[k], hi[k], tw[k]
			br, bi := cmul(real(h), imag(h), real(t), imag(t))
			x0r, x0i, x1r, x1i := bfly2(real(a), imag(a), br, bi)
			lo[k], hi[k] = complex(x0r, x0i), complex(x1r, x1i)
		}
	}
}

// stageRadix4 merges quadruples of length-m sub-transforms.
func stageRadix4(w []complex128, m int, tw []complex128) {
	n := len(w)
	for o := 0; o < n; o += 4 * m {
		b0 := w[o : o+m : o+m]
		b1 := w[o+m : o+2*m : o+2*m]
		b2 := w[o+2*m : o+3*m : o+3*m]
		b3 := w[o+3*m : o+4*m : o+4*m]
		for k := 0; k < m; k++ {
			t := tw[3*k : 3*k+3 : 3*k+3]
			a, x1, x2, x3 := b0[k], b1[k], b2[k], b3[k]
			br, bi := cmul(real(x1), imag(x1), real(t[0]), imag(t[0]))
			cr, ci := cmul(real(x2), imag(x2), real(t[1]), imag(t[1]))
			dr, di := cmul(real(x3), imag(x3), real(t[2]), imag(t[2]))
			y0r, y0i, y2r, y2i, y1r, y1i, y3r, y3i := bfly4(real(a), imag(a), br, bi, cr, ci, dr, di)
			b0[k], b2[k] = complex(y0r, y0i), complex(y2r, y2i)
			b1[k], b3[k] = complex(y1r, y1i), complex(y3r, y3i)
		}
	}
}

// stageGeneric merges groups of r length-m sub-transforms with the dense
// precomputed r-point DFT matrix (odd radices 7/11/13).
func stageGeneric(w []complex128, r, m int, tw, wr []complex128) {
	n := len(w)
	var tmp, out [maxDirectRadix]complex128
	for o := 0; o < n; o += r * m {
		blk := w[o : o+r*m : o+r*m]
		for k := 0; k < m; k++ {
			tmp[0] = blk[k]
			tb := tw[(r-1)*k : (r-1)*k+r-1]
			for q := 1; q < r; q++ {
				tmp[q] = blk[q*m+k] * tb[q-1]
			}
			for j := 0; j < r; j++ {
				acc := tmp[0]
				row := wr[j*r : j*r+r]
				for q := 1; q < r; q++ {
					acc += tmp[q] * row[q]
				}
				out[j] = acc
			}
			for j := 0; j < r; j++ {
				blk[j*m+k] = out[j]
			}
		}
	}
}

// Scale multiplies every element by s.
func Scale(x []complex128, s float64) {
	c := complex(s, 0)
	for i := range x {
		x[i] *= c
	}
}

// TransformMany applies the plan in place to count contiguous rows of
// length N starting at data[0].
func (p *Plan) TransformMany(data []complex128, count int, sign Sign) {
	if len(data) < count*p.n {
		panic("fft: TransformMany: slice too short")
	}
	for b := 0; b < count; b++ {
		p.Transform(data[b*p.n:(b+1)*p.n], sign)
	}
}

// GoodSize returns the smallest m >= n whose prime factors are all in
// {2,3,5}, the grid-size rule used by Quantum ESPRESSO's FFT grids.
func GoodSize(n int) int {
	if n <= 1 {
		return 1
	}
	for m := n; ; m++ {
		k := m
		for _, f := range []int{2, 3, 5} {
			for k%f == 0 {
				k /= f
			}
		}
		if k == 1 {
			return m
		}
	}
}

// DFT is the naive O(n²) reference transform used by the tests.
func DFT(x []complex128, sign Sign) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			ang := float64(sign) * 2 * math.Pi * float64(j*k%n) / float64(n)
			acc += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = acc
	}
	return out
}
