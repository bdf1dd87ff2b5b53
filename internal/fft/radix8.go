package fft

import "math"

// Radix-8 butterflies: two 4-point DFTs (bfly4 on the even and the odd
// inputs), the eighth-root rotations of the odd half (rot8) and a final
// radix-2 layer (bfly2). The AoS stage runs all of it per cell; the planar
// stages stage the halves through L1-resident columns (radix8Halves) and
// differ only in where the final layer writes.

// invSqrt2 is √2/2, the magnitude of the odd eighth roots of unity. The
// radix-8 butterfly multiplies by (±√2/2)(1∓i) with two real
// multiplications and two additions instead of a full complex multiply.
const invSqrt2 = math.Sqrt2 / 2

// rot8 applies the odd-half rotations of the radix-8 butterfly:
// (√2/2)(1-i)·o1, -i·o2 and -(√2/2)(1+i)·o3.
func rot8(o1r, o1i, o2r, o2i, o3r, o3i float64) (v1r, v1i, v2r, v2i, v3r, v3i float64) {
	return invSqrt2 * (o1r + o1i), invSqrt2 * (o1i - o1r), o2i, -o2r,
		invSqrt2 * (o3i - o3r), -invSqrt2 * (o3r + o3i)
}

// stageRadix8 merges groups of 8 length-m sub-transforms.
func stageRadix8(w []complex128, m int, tw []complex128) {
	n := len(w)
	for o := 0; o < n; o += 8 * m {
		b0 := w[o : o+m : o+m]
		b1 := w[o+m : o+2*m : o+2*m]
		b2 := w[o+2*m : o+3*m : o+3*m]
		b3 := w[o+3*m : o+4*m : o+4*m]
		b4 := w[o+4*m : o+5*m : o+5*m]
		b5 := w[o+5*m : o+6*m : o+6*m]
		b6 := w[o+6*m : o+7*m : o+7*m]
		b7 := w[o+7*m : o+8*m : o+8*m]
		for k := 0; k < m; k++ {
			t := tw[7*k : 7*k+7 : 7*k+7]
			a0 := b0[k]
			a2r, a2i := cmul(real(b2[k]), imag(b2[k]), real(t[1]), imag(t[1]))
			a4r, a4i := cmul(real(b4[k]), imag(b4[k]), real(t[3]), imag(t[3]))
			a6r, a6i := cmul(real(b6[k]), imag(b6[k]), real(t[5]), imag(t[5]))
			e0r, e0i, e2r, e2i, e1r, e1i, e3r, e3i := bfly4(real(a0), imag(a0), a2r, a2i, a4r, a4i, a6r, a6i)
			a1r, a1i := cmul(real(b1[k]), imag(b1[k]), real(t[0]), imag(t[0]))
			a3r, a3i := cmul(real(b3[k]), imag(b3[k]), real(t[2]), imag(t[2]))
			a5r, a5i := cmul(real(b5[k]), imag(b5[k]), real(t[4]), imag(t[4]))
			a7r, a7i := cmul(real(b7[k]), imag(b7[k]), real(t[6]), imag(t[6]))
			o0r, o0i, o2r, o2i, o1r, o1i, o3r, o3i := bfly4(a1r, a1i, a3r, a3i, a5r, a5i, a7r, a7i)
			v1r, v1i, v2r, v2i, v3r, v3i := rot8(o1r, o1i, o2r, o2i, o3r, o3i)
			x0r, x0i, x4r, x4i := bfly2(e0r, e0i, o0r, o0i)
			b0[k], b4[k] = complex(x0r, x0i), complex(x4r, x4i)
			x2r, x2i, x6r, x6i := bfly2(e2r, e2i, v2r, v2i)
			b2[k], b6[k] = complex(x2r, x2i), complex(x6r, x6i)
			x1r, x1i, x5r, x5i := bfly2(e1r, e1i, v1r, v1i)
			b1[k], b5[k] = complex(x1r, x1i), complex(x5r, x5i)
			x3r, x3i, x7r, x7i := bfly2(e3r, e3i, v3r, v3i)
			b3[k], b7[k] = complex(x3r, x3i), complex(x7r, x7i)
		}
	}
}

// radix8Cols holds four planar columns of up to soaChunkRows rows: the
// even or the odd half of a planar radix-8 butterfly.
type radix8Cols struct{ re, im [4][soaChunkRows]float64 }

// radix8Halves runs the two 4-point halves of the planar radix-8 butterfly
// of cell column k, whose eight input streams start at base + q·step, over
// rows 0..nb-1: e gets the DFT of the twiddled inputs 0, 2, 4, 6 and v the
// rotated DFT of the twiddled inputs 1, 3, 5, 7. The whole 8-point
// butterfly touches 16 planar streams at once — double what the register
// file can hold — so the halves run as separate passes through e and v,
// and the final radix-2 layer (e_j ± v_j) is the caller's. float64 stores
// are exact, so this staging moves no bit against stageRadix8.
func radix8Halves(wr, wi []float64, base, step, nb int, twr, twi []float64, k, m int, e, v *radix8Cols) {
	{
		t2r, t2i := twr[m+k], twi[m+k]
		t4r, t4i := twr[3*m+k], twi[3*m+k]
		t6r, t6i := twr[5*m+k], twi[5*m+k]
		s0r, s0i := wr[base:][:nb:nb], wi[base:][:nb:nb]
		s2r, s2i := wr[base+2*step:][:nb:nb], wi[base+2*step:][:nb:nb]
		s4r, s4i := wr[base+4*step:][:nb:nb], wi[base+4*step:][:nb:nb]
		s6r, s6i := wr[base+6*step:][:nb:nb], wi[base+6*step:][:nb:nb]
		e0r, e0i := e.re[0][:nb], e.im[0][:nb]
		e1r, e1i := e.re[1][:nb], e.im[1][:nb]
		e2r, e2i := e.re[2][:nb], e.im[2][:nb]
		e3r, e3i := e.re[3][:nb], e.im[3][:nb]
		for b := 0; b < nb; b++ {
			a0r, a0i := s0r[b], s0i[b]
			a2r, a2i := cmul(s2r[b], s2i[b], t2r, t2i)
			a4r, a4i := cmul(s4r[b], s4i[b], t4r, t4i)
			a6r, a6i := cmul(s6r[b], s6i[b], t6r, t6i)
			e0r[b], e0i[b], e2r[b], e2i[b], e1r[b], e1i[b], e3r[b], e3i[b] = bfly4(a0r, a0i, a2r, a2i, a4r, a4i, a6r, a6i)
		}
	}
	t1r, t1i := twr[k], twi[k]
	t3r, t3i := twr[2*m+k], twi[2*m+k]
	t5r, t5i := twr[4*m+k], twi[4*m+k]
	t7r, t7i := twr[6*m+k], twi[6*m+k]
	s1r, s1i := wr[base+step:][:nb:nb], wi[base+step:][:nb:nb]
	s3r, s3i := wr[base+3*step:][:nb:nb], wi[base+3*step:][:nb:nb]
	s5r, s5i := wr[base+5*step:][:nb:nb], wi[base+5*step:][:nb:nb]
	s7r, s7i := wr[base+7*step:][:nb:nb], wi[base+7*step:][:nb:nb]
	v0r, v0i := v.re[0][:nb], v.im[0][:nb]
	v1r, v1i := v.re[1][:nb], v.im[1][:nb]
	v2r, v2i := v.re[2][:nb], v.im[2][:nb]
	v3r, v3i := v.re[3][:nb], v.im[3][:nb]
	for b := 0; b < nb; b++ {
		a1r, a1i := cmul(s1r[b], s1i[b], t1r, t1i)
		a3r, a3i := cmul(s3r[b], s3i[b], t3r, t3i)
		a5r, a5i := cmul(s5r[b], s5i[b], t5r, t5i)
		a7r, a7i := cmul(s7r[b], s7i[b], t7r, t7i)
		o0r, o0i, o2r, o2i, o1r, o1i, o3r, o3i := bfly4(a1r, a1i, a3r, a3i, a5r, a5i, a7r, a7i)
		v0r[b], v0i[b] = o0r, o0i
		v1r[b], v1i[b], v2r[b], v2i[b], v3r[b], v3i[b] = rot8(o1r, o1i, o2r, o2i, o3r, o3i)
	}
}

// stageRadix8Rows is the cell-major radix-8 butterfly: radix8Halves, then
// the final radix-2 layer in place.
func stageRadix8Rows(wr, wi []float64, m, nb, ld int, twr, twi []float64) {
	var e, v radix8Cols
	step := m * ld
	for o := 0; o < len(wr); o += 8 * step {
		for k := 0; k < m; k++ {
			base := o + k*ld
			radix8Halves(wr, wi, base, step, nb, twr, twi, k, m, &e, &v)
			for j := 0; j < 4; j++ {
				lr, li := wr[base+j*step:][:nb:nb], wi[base+j*step:][:nb:nb]
				hr, hi := wr[base+(j+4)*step:][:nb:nb], wi[base+(j+4)*step:][:nb:nb]
				ejr, eji := e.re[j][:nb], e.im[j][:nb]
				vjr, vji := v.re[j][:nb], v.im[j][:nb]
				for b := 0; b < nb; b++ {
					lr[b], li[b], hr[b], hi[b] = bfly2(ejr[b], eji[b], vjr[b], vji[b])
				}
			}
		}
	}
}

// stageRadix8RowsUnpack is the final radix-8 combine pass fused with the
// planar→AoS unpack (8m = n): radix8Halves, then the final radix-2 layer
// writing the finished spectrum straight into the AoS output rows. The
// layer is part-wise, so swap (Backward) reads the planes of e and v
// exchanged and stores swapped parts at no cost.
func stageRadix8RowsUnpack(wr, wi []float64, m, nb, ld int, twr, twi []float64, chunk []complex128, n int, swap bool) {
	var e, v radix8Cols
	eR, eI, vR, vI := &e.re, &e.im, &v.re, &v.im
	if swap {
		eR, eI, vR, vI = eI, eR, vI, vR
	}
	for k := 0; k < m; k++ {
		radix8Halves(wr, wi, k*ld, m*ld, nb, twr, twi, k, m, &e, &v)
		for j := 0; j < 4; j++ {
			ejr, eji := eR[j][:nb], eI[j][:nb]
			vjr, vji := vR[j][:nb], vI[j][:nb]
			lo, hi := j*m+k, (j+4)*m+k
			for b := 0; b < nb; b++ {
				x0r, x0i, x1r, x1i := bfly2(ejr[b], eji[b], vjr[b], vji[b])
				row := chunk[b*n : (b+1)*n : (b+1)*n]
				row[lo], row[hi] = complex(x0r, x0i), complex(x1r, x1i)
			}
		}
	}
}
