package fft

import "math"

// invSqrt2 is √2/2, the magnitude of the odd eighth roots of unity. The
// radix-8 butterfly multiplies by (±√2/2)(1∓i) with two real
// multiplications and two additions instead of a full complex multiply;
// the planar butterfly (stageRadix8Rows) mirrors the same formula so both
// layouts stay bit-identical.
const invSqrt2 = math.Sqrt2 / 2

// stageRadix8 merges groups of 8 length-m sub-transforms: two 4-point
// DFTs (even and odd inputs) joined by a final twiddled radix-2 layer.
// Only the ±i and ±(√2/2)(1∓i) rotations depend on the direction, so the
// body branches once per block, not per butterfly.
func stageRadix8(w []complex128, m int, tw []complex128, sign Sign) {
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
		if sign == Forward {
			for k := 0; k < m; k++ {
				t := tw[7*k : 7*k+7 : 7*k+7]
				a0 := b0[k]
				a1 := b1[k] * t[0]
				a2 := b2[k] * t[1]
				a3 := b3[k] * t[2]
				a4 := b4[k] * t[3]
				a5 := b5[k] * t[4]
				a6 := b6[k] * t[5]
				a7 := b7[k] * t[6]
				t0, t1 := a0+a4, a0-a4
				t2, t3 := a2+a6, a2-a6
				u0, u1 := a1+a5, a1-a5
				u2, u3 := a3+a7, a3-a7
				jt3 := complex(imag(t3), -real(t3)) // -i·t3
				ju3 := complex(imag(u3), -real(u3)) // -i·u3
				e0, e2 := t0+t2, t0-t2
				e1, e3 := t1+jt3, t1-jt3
				o0, o2 := u0+u2, u0-u2
				o1, o3 := u1+ju3, u1-ju3
				// (√2/2)(1-i)·o1, -i·o2 and -(√2/2)(1+i)·o3.
				co1 := complex(invSqrt2*(real(o1)+imag(o1)), invSqrt2*(imag(o1)-real(o1)))
				jo2 := complex(imag(o2), -real(o2))
				do3 := complex(invSqrt2*(imag(o3)-real(o3)), -invSqrt2*(real(o3)+imag(o3)))
				b0[k], b4[k] = e0+o0, e0-o0
				b1[k], b5[k] = e1+co1, e1-co1
				b2[k], b6[k] = e2+jo2, e2-jo2
				b3[k], b7[k] = e3+do3, e3-do3
			}
		} else {
			for k := 0; k < m; k++ {
				t := tw[7*k : 7*k+7 : 7*k+7]
				a0 := b0[k]
				a1 := b1[k] * t[0]
				a2 := b2[k] * t[1]
				a3 := b3[k] * t[2]
				a4 := b4[k] * t[3]
				a5 := b5[k] * t[4]
				a6 := b6[k] * t[5]
				a7 := b7[k] * t[6]
				t0, t1 := a0+a4, a0-a4
				t2, t3 := a2+a6, a2-a6
				u0, u1 := a1+a5, a1-a5
				u2, u3 := a3+a7, a3-a7
				jt3 := complex(-imag(t3), real(t3)) // +i·t3
				ju3 := complex(-imag(u3), real(u3)) // +i·u3
				e0, e2 := t0+t2, t0-t2
				e1, e3 := t1+jt3, t1-jt3
				o0, o2 := u0+u2, u0-u2
				o1, o3 := u1+ju3, u1-ju3
				// (√2/2)(1+i)·o1, +i·o2 and -(√2/2)(1-i)·o3.
				co1 := complex(invSqrt2*(real(o1)-imag(o1)), invSqrt2*(real(o1)+imag(o1)))
				jo2 := complex(-imag(o2), real(o2))
				do3 := complex(-invSqrt2*(real(o3)+imag(o3)), invSqrt2*(real(o3)-imag(o3)))
				b0[k], b4[k] = e0+o0, e0-o0
				b1[k], b5[k] = e1+co1, e1-co1
				b2[k], b6[k] = e2+jo2, e2-jo2
				b3[k], b7[k] = e3+do3, e3-do3
			}
		}
	}
}
