package fft

import "math"

// Radix-8 butterflies: two 4-point DFTs (bfly4 on the even and the odd
// inputs), the eighth-root rotations of the odd half (rot8) and a final
// radix-2 layer (bfly2), all of it per cell.

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
