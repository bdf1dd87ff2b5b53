package graph

import (
	"math/cmplx"

	"repro/internal/fft"
	"repro/internal/par"
)

// Gamma-point mode (Quantum ESPRESSO's gamma_only): wavefunctions are real
// in real space, so only the Hermitian half of the G-sphere is stored and
// TWO bands are transformed per FFT by packing them as psi = c1 + i·c2.
// The real-space field then carries band 1 in its real part and band 2 in
// its imaginary part; after applying the (real) potential, the two bands
// separate again through the Hermitian split
//
//	c1'(G) = (F(+G) + conj(F(-G))) / 2
//	c2'(G) = (F(+G) - conj(F(-G))) / (2i).
//
// In stick space every half-stick (i,j) expands to two columns: the +column
// holds c1+i·c2 and the -column (at grid cell (-i,-j)) holds
// conj(c1 - i·c2), which is the packed field's value at -G. The (0,0)
// stick is self-conjugate: its negative-K half lands in the same column.
// All pipeline stages below mirror the standard ones with two columns per
// stick; the FFT count per pair of bands equals the standard count for one
// band — the factor-two saving gamma_only exists for.

// GammaFactor scales the column-proportional instruction counts and
// communication volumes of gamma-mode stages.
const GammaFactor = 2

// gammaCols returns the stick-buffer column count of position p.
func (k *Kernel) gammaCols(p int) int { return 2 * k.Layout.NSticksOf(p) }

// PrepSticksGamma packs a band pair into the two-columns-per-stick buffer.
func (k *Kernel) PrepSticksGamma(p int, c1, c2 []complex128) []complex128 {
	nz := k.Sphere.Grid.Nz
	buf := make([]complex128, k.gammaCols(p)*nz)
	fill := k.StickFill[p]
	sticksOf := k.Layout.SticksOf[p]
	// Distinct coefficients write distinct cells: the stored half-sphere
	// keeps one of each ±kz pair, so the +cell set and the mirrored -cell
	// set never overlap (the self-conjugate kz=0 case is guarded below).
	par.ParallelFor(len(fill), grainIndex, func(ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			tgt := fill[i]
			s, iz := tgt/nz, tgt%nz
			mz := (nz - iz) % nz
			vp := c1[i] + complex(0, 1)*c2[i]
			vm := cmplx.Conj(c1[i] - complex(0, 1)*c2[i])
			if k.Sphere.Stick[sticksOf[s]].IsZeroStick() {
				buf[2*s*nz+iz] = vp
				if iz != 0 {
					buf[2*s*nz+mz] = vm
				}
				continue
			}
			buf[2*s*nz+iz] = vp
			buf[(2*s+1)*nz+mz] = vm
		}
	})
	return buf
}

// ExtractCoeffsGamma separates the band pair back out of the stick buffer,
// applying the backward 1/N normalization.
func (k *Kernel) ExtractCoeffsGamma(p int, buf []complex128) (c1, c2 []complex128) {
	nz := k.Sphere.Grid.Nz
	fill := k.StickFill[p]
	sticksOf := k.Layout.SticksOf[p]
	c1 = make([]complex128, len(fill))
	c2 = make([]complex128, len(fill))
	scale := complex(1/float64(k.Sphere.Grid.Size()), 0)
	par.ParallelFor(len(fill), grainIndex, func(ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			tgt := fill[i]
			s, iz := tgt/nz, tgt%nz
			mz := (nz - iz) % nz
			vP := buf[2*s*nz+iz]
			var vM complex128
			if k.Sphere.Stick[sticksOf[s]].IsZeroStick() {
				vM = buf[2*s*nz+mz]
			} else {
				vM = buf[(2*s+1)*nz+mz]
			}
			c1[i] = (vP + cmplx.Conj(vM)) * 0.5 * scale
			c2[i] = (vP - cmplx.Conj(vM)) * complex(0, -0.5) * scale
		}
	})
	return c1, c2
}

// FFTZGamma transforms all columns (two per stick) along z.
func (k *Kernel) FFTZGamma(p int, buf []complex128, sign fft.Sign) {
	k.PlanZ.TransformBatch(buf, k.gammaCols(p), sign)
}

// ScatterSplitGamma builds the forward-scatter send chunks over the doubled
// column set.
func (k *Kernel) ScatterSplitGamma(p int, buf []complex128) [][]complex128 {
	return k.splitCols(p, buf, k.gammaCols(p))
}

// SticksFromScatterGamma reassembles the doubled column set.
func (k *Kernel) SticksFromScatterGamma(p int, recv [][]complex128) []complex128 {
	return k.joinCols(p, recv, k.gammaCols(p))
}

// PlanesFromScatterGamma assembles the planes, placing each stick's +column
// at its cell and its -column at the Hermitian partner cell.
func (k *Kernel) PlanesFromScatterGamma(p int, recv [][]complex128) []complex128 {
	l := k.Layout
	g := k.Sphere.Grid
	npl := l.NPlanesOf(p)
	nxy := g.Nx * g.Ny
	planes := make([]complex128, npl*nxy)
	// Each (q,t) writes its own +cell and -cell: the -cells are the cells
	// of the unstored Hermitian partner sticks, so the write sets of
	// distinct source positions stay disjoint and q can fan out.
	par.ParallelFor(l.R, 1, func(qlo, qhi int) {
		for q := qlo; q < qhi; q++ {
			nsq := l.NSticksOf(q)
			for t := 0; t < nsq; t++ {
				gs := k.GroupStickOffset[q] + t
				cellP := k.StickPlaneIdx[gs]
				cellM := k.GammaMinus[gs]
				for z := 0; z < npl; z++ {
					planes[z*nxy+cellP] = recv[q][(2*t)*npl+z]
					if cellM >= 0 {
						planes[z*nxy+cellM] = recv[q][(2*t+1)*npl+z]
					}
				}
			}
		}
	})
	return planes
}

// PlanesToScatterGamma is the inverse of PlanesFromScatterGamma.
func (k *Kernel) PlanesToScatterGamma(p int, planes []complex128) [][]complex128 {
	l := k.Layout
	g := k.Sphere.Grid
	npl := l.NPlanesOf(p)
	nxy := g.Nx * g.Ny
	out := make([][]complex128, l.R)
	par.ParallelFor(l.R, 1, func(qlo, qhi int) {
		for q := qlo; q < qhi; q++ {
			nsq := l.NSticksOf(q)
			chunk := make([]complex128, 2*nsq*npl)
			for t := 0; t < nsq; t++ {
				gs := k.GroupStickOffset[q] + t
				cellP := k.StickPlaneIdx[gs]
				cellM := k.GammaMinus[gs]
				for z := 0; z < npl; z++ {
					chunk[(2*t)*npl+z] = planes[z*nxy+cellP]
					if cellM >= 0 {
						chunk[(2*t+1)*npl+z] = planes[z*nxy+cellM]
					}
				}
			}
			out[q] = chunk
		}
	})
	return out
}

// BytesScatterFwGamma is the gamma forward scatter volume per band pair:
// two columns per stick.
func (k *Kernel) BytesScatterFwGamma(p int) float64 { return GammaFactor * k.BytesScatterFw(p) }

// BytesScatterBwGamma is the gamma backward scatter volume per band pair.
func (k *Kernel) BytesScatterBwGamma(p int) float64 { return GammaFactor * k.BytesScatterBw(p) }
