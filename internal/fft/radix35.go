package fft

// Radix-3 and radix-5 butterflies. Each small DFT is written as functions
// of real scalars that the stage calls on the real and imaginary parts of
// its complex128 cells. Radix 3 is one function (bfly3); a whole 5-point
// body exceeds Go's inlining budget, so radix 5 is three (cos5, sin5,
// turnPair). The twiddle products go through cmul. The explicit
// float64(...) conversions pin every product's rounding, so no platform may
// fuse one into the following addition.
//
// Like every stage, these run forward only (sine constants +sin); Backward
// reaches them on swapped parts (see the package doc).

// sin3 is sin(2π/3) = √3/2, the imaginary part of the cube roots of unity.
const sin3 = 0.86602540378443864676372317075293618347140262690519

// The radix-5 constants: with c1 = cos(2π/5) and c2 = cos(4π/5),
// c1 + c2 = -1/2 and c1 - c2 = √5/2, so the two cosine mixes
// a0 + c1·t1 + c2·t2 and a0 + c2·t1 + c1·t2 cost one shared -¼ term and one
// ±(√5/4)(t1 - t2) term instead of four products.
const (
	cos5d = 0.55901699437494742410229341718281905886015458990288 // √5/4
	sin5a = 0.95105651629515357211643933337938214340569863412575 // sin(2π/5)
	sin5b = 0.58778525229247312916870595463907276859765243764315 // sin(4π/5)
)

// bfly3 is the 3-point DFT of a and the twiddled b, c.
func bfly3(ar, ai, br, bi, cr, ci float64) (x0r, x0i, x1r, x1i, x2r, x2i float64) {
	tr, ti := br+cr, bi+ci
	mr := ar - float64(0.5*tr)
	mi := ai - float64(0.5*ti)
	x1r, x1i, x2r, x2i = turnPair(mr, mi, float64(sin3*(br-cr)), float64(sin3*(bi-ci)))
	return ar + tr, ai + ti, x1r, x1i, x2r, x2i
}

// turnPair returns the output pair m - i·n and m + i·n of an odd-radix
// butterfly.
func turnPair(mr, mi, nr, ni float64) (ar, ai, br, bi float64) {
	return mr + ni, mi - nr, mr - ni, mi + nr
}

// cos5 returns the radix-5 cosine mixes m1 = a0 + c1·t1 + c2·t2 and
// m2 = a0 + c2·t1 + c1·t2 of t1 = a1 + a4 and t2 = a2 + a3.
func cos5(a0r, a0i, t1r, t1i, t2r, t2i float64) (m1r, m1i, m2r, m2i float64) {
	qr := a0r - float64(0.25*(t1r+t2r))
	qi := a0i - float64(0.25*(t1i+t2i))
	dr := float64(cos5d * (t1r - t2r))
	di := float64(cos5d * (t1i - t2i))
	return qr + dr, qi + di, qr - dr, qi - di
}

// sin5 returns the radix-5 sine mixes n1 = s1·t3 + s2·t4 and
// n2 = s2·t3 - s1·t4 of t3 = a1 - a4 and t4 = a2 - a3, with the sines
// s1 = sin(2π/5) and s2 = sin(4π/5).
func sin5(t3r, t3i, t4r, t4i float64) (n1r, n1i, n2r, n2i float64) {
	return float64(sin5a*t3r) + float64(sin5b*t4r), float64(sin5a*t3i) + float64(sin5b*t4i),
		float64(sin5b*t3r) - float64(sin5a*t4r), float64(sin5b*t3i) - float64(sin5a*t4i)
}

// stageRadix3 merges triples of length-m sub-transforms.
func stageRadix3(w []complex128, m int, tw []complex128) {
	n := len(w)
	for o := 0; o < n; o += 3 * m {
		b0 := w[o : o+m : o+m]
		b1 := w[o+m : o+2*m : o+2*m]
		b2 := w[o+2*m : o+3*m : o+3*m]
		for k := 0; k < m; k++ {
			t1, t2 := tw[2*k], tw[2*k+1]
			a := b0[k]
			br, bi := cmul(real(b1[k]), imag(b1[k]), real(t1), imag(t1))
			cr, ci := cmul(real(b2[k]), imag(b2[k]), real(t2), imag(t2))
			x0r, x0i, x1r, x1i, x2r, x2i := bfly3(real(a), imag(a), br, bi, cr, ci)
			b0[k] = complex(x0r, x0i)
			b1[k] = complex(x1r, x1i)
			b2[k] = complex(x2r, x2i)
		}
	}
}

// stageRadix5 merges quintuples of length-m sub-transforms.
func stageRadix5(w []complex128, m int, tw []complex128) {
	n := len(w)
	for o := 0; o < n; o += 5 * m {
		b0 := w[o : o+m : o+m]
		b1 := w[o+m : o+2*m : o+2*m]
		b2 := w[o+2*m : o+3*m : o+3*m]
		b3 := w[o+3*m : o+4*m : o+4*m]
		b4 := w[o+4*m : o+5*m : o+5*m]
		for k := 0; k < m; k++ {
			t := tw[4*k : 4*k+4 : 4*k+4]
			a0r, a0i := real(b0[k]), imag(b0[k])
			a1r, a1i := cmul(real(b1[k]), imag(b1[k]), real(t[0]), imag(t[0]))
			a2r, a2i := cmul(real(b2[k]), imag(b2[k]), real(t[1]), imag(t[1]))
			a3r, a3i := cmul(real(b3[k]), imag(b3[k]), real(t[2]), imag(t[2]))
			a4r, a4i := cmul(real(b4[k]), imag(b4[k]), real(t[3]), imag(t[3]))
			t1r, t1i := a1r+a4r, a1i+a4i
			t2r, t2i := a2r+a3r, a2i+a3i
			m1r, m1i, m2r, m2i := cos5(a0r, a0i, t1r, t1i, t2r, t2i)
			n1r, n1i, n2r, n2i := sin5(a1r-a4r, a1i-a4i, a2r-a3r, a2i-a3i)
			x1r, x1i, x4r, x4i := turnPair(m1r, m1i, n1r, n1i)
			x2r, x2i, x3r, x3i := turnPair(m2r, m2i, n2r, n2i)
			b0[k] = complex(a0r+(t1r+t2r), a0i+(t1i+t2i))
			b1[k] = complex(x1r, x1i)
			b2[k] = complex(x2r, x2i)
			b3[k] = complex(x3r, x3i)
			b4[k] = complex(x4r, x4i)
		}
	}
}
