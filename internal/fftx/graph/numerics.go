package graph

import (
	"repro/internal/fft"
	"repro/internal/par"
)

// The data transforms of the pipeline — the stage bodies in ModeReal.
// Each operates on one position p of the layout (the rank inside a task
// group that owns a subset of sticks and a contiguous block of planes).
//
// The hot loops fan out over host cores with par.ParallelFor: every body
// writes only data indexed by its own [lo,hi) range, and the simulated cost
// of each phase comes from the analytic instruction model (Stage.Instr),
// so host parallelism changes wall clock only — simulated results are
// bit-identical with par enabled or disabled (see TestHostParEquivalence).
// Bodies must not touch mpi/vtime/ompss state; the package imports none of
// them (internal/analysis's TestParBodyRule).

// Host-parallel grain sizes: planes are expensive, so they split singly;
// flat index loops batch by the thousand to amortize dispatch. Sticks and
// the fft-xy planes fan out inside the fft batch drivers (one grain of
// sticks per worker chunk, one plane per item — see fft.TransformBatch),
// whose plane grain is this one.
const (
	grainPlanes = 1
	grainIndex  = 4096
)

// PrepSticks builds the zero-padded stick buffer (stick-major, full Nz per
// stick) from position p's local sphere coefficients — the "preparation of
// the Psis" phase with very low IPC in Figure 3.
func (k *Kernel) PrepSticks(p int, coeffs []complex128) []complex128 {
	buf := make([]complex128, k.Layout.NSticksOf(p)*k.Sphere.Grid.Nz)
	fill := k.StickFill[p]
	par.ParallelFor(len(coeffs), grainIndex, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf[fill[i]] = coeffs[i]
		}
	})
	return buf
}

// FFTZ transforms every local stick along z in place through the plan's
// batch driver, which fans the sticks out over host cores and runs each
// worker's rows through TransformMany — bit-identical to one serial
// TransformMany over all of them.
func (k *Kernel) FFTZ(p int, buf []complex128, sign fft.Sign) {
	k.PlanZ.TransformBatch(buf, k.Layout.NSticksOf(p), sign)
}

// FFTZPart transforms the stick range [lo,hi) of position p's stick
// buffer — the body of the nested task loop over cft_1z calls.
func (k *Kernel) FFTZPart(buf []complex128, sign fft.Sign, lo, hi int) {
	nz := k.Sphere.Grid.Nz
	k.PlanZ.TransformBatch(buf[lo*nz:hi*nz], hi-lo, sign)
}

// splitCols builds the sticks→planes Alltoallv send chunks over nCols
// columns of the stick buffer: send[q] holds, column-major, the values at
// q's plane range.
func (k *Kernel) splitCols(p int, buf []complex128, nCols int) [][]complex128 {
	l := k.Layout
	nz := k.Sphere.Grid.Nz
	out := make([][]complex128, l.R)
	par.ParallelFor(l.R, 1, func(qlo, qhi int) {
		for q := qlo; q < qhi; q++ {
			lo, hi := l.PlaneLo[q], l.PlaneHi[q]
			chunk := make([]complex128, 0, nCols*(hi-lo))
			for s := 0; s < nCols; s++ {
				chunk = append(chunk, buf[s*nz+lo:s*nz+hi]...)
			}
			out[q] = chunk
		}
	})
	return out
}

// joinCols is the inverse of splitCols.
func (k *Kernel) joinCols(p int, recv [][]complex128, nCols int) []complex128 {
	l := k.Layout
	nz := k.Sphere.Grid.Nz
	buf := make([]complex128, nCols*nz)
	par.ParallelFor(l.R, 1, func(qlo, qhi int) {
		for q := qlo; q < qhi; q++ {
			lo, hi := l.PlaneLo[q], l.PlaneHi[q]
			w := hi - lo
			for s := 0; s < nCols; s++ {
				copy(buf[s*nz+lo:s*nz+hi], recv[q][s*w:(s+1)*w])
			}
		}
	})
	return buf
}

// ScatterSplit builds the sticks→planes Alltoallv send chunks: send[q]
// holds, stick-major, the values of my sticks at q's plane range.
func (k *Kernel) ScatterSplit(p int, buf []complex128) [][]complex128 {
	return k.splitCols(p, buf, k.Layout.NSticksOf(p))
}

// PlanesFromScatter assembles position p's full XY planes (plane-major,
// row-major within a plane) from the forward-scatter receive chunks: the
// "xy-fill" memory phase. Each source position q owns a disjoint set of
// plane cells, so the fan-out is over q.
func (k *Kernel) PlanesFromScatter(p int, recv [][]complex128) []complex128 {
	l := k.Layout
	g := k.Sphere.Grid
	npl := l.NPlanesOf(p)
	nxy := g.Nx * g.Ny
	planes := make([]complex128, npl*nxy)
	par.ParallelFor(l.R, 1, func(qlo, qhi int) {
		for q := qlo; q < qhi; q++ {
			nsq := l.NSticksOf(q)
			for t := 0; t < nsq; t++ {
				cell := k.StickPlaneIdx[k.GroupStickOffset[q]+t]
				base := t * npl
				for z := 0; z < npl; z++ {
					planes[z*nxy+cell] = recv[q][base+z]
				}
			}
		}
	})
	return planes
}

// FFTXY transforms every owned plane in place, one host task per plane
// (a single plane fans out its own row and column passes).
func (k *Kernel) FFTXY(p int, planes []complex128, sign fft.Sign) {
	k.FFTXYPart(planes, sign, 0, k.Layout.NPlanesOf(p))
}

// FFTXYPart transforms the plane range [lo,hi) of position p — the body
// of the nested task loop over cft_2xy calls.
func (k *Kernel) FFTXYPart(planes []complex128, sign fft.Sign, lo, hi int) {
	nxy := k.Sphere.Grid.Nx * k.Sphere.Grid.Ny
	k.Plan2D.TransformBatch(planes[lo*nxy:hi*nxy], hi-lo, sign)
}

// VOfR multiplies the owned real-space planes by the local potential — the
// operator the miniapp exists to apply.
func (k *Kernel) VOfR(p int, planes []complex128) {
	g := k.Sphere.Grid
	nxy := g.Nx * g.Ny
	par.ParallelFor(k.Layout.NPlanesOf(p), grainPlanes, func(zlo, zhi int) {
		for z := zlo; z < zhi; z++ {
			vp := k.Pot.Planes[k.Layout.PlaneLo[p]+z]
			pl := planes[z*nxy : (z+1)*nxy]
			for i := range pl {
				pl[i] *= complex(vp[i], 0)
			}
		}
	})
}

// PlanesToScatter is the inverse of PlanesFromScatter: it builds the
// backward-scatter send chunks (send[q] = q's sticks' values at my planes).
func (k *Kernel) PlanesToScatter(p int, planes []complex128) [][]complex128 {
	l := k.Layout
	g := k.Sphere.Grid
	npl := l.NPlanesOf(p)
	nxy := g.Nx * g.Ny
	out := make([][]complex128, l.R)
	par.ParallelFor(l.R, 1, func(qlo, qhi int) {
		for q := qlo; q < qhi; q++ {
			nsq := l.NSticksOf(q)
			chunk := make([]complex128, nsq*npl)
			for t := 0; t < nsq; t++ {
				cell := k.StickPlaneIdx[k.GroupStickOffset[q]+t]
				for z := 0; z < npl; z++ {
					chunk[t*npl+z] = planes[z*nxy+cell]
				}
			}
			out[q] = chunk
		}
	})
	return out
}

// SticksFromScatter is the inverse of ScatterSplit: it reassembles the full
// stick buffer from the backward-scatter receive chunks.
func (k *Kernel) SticksFromScatter(p int, recv [][]complex128) []complex128 {
	return k.joinCols(p, recv, k.Layout.NSticksOf(p))
}

// ExtractCoeffs gathers the sphere coefficients back out of the stick
// buffer, applying the backward 1/N normalization of the full 3-D
// transform.
func (k *Kernel) ExtractCoeffs(p int, buf []complex128) []complex128 {
	fill := k.StickFill[p]
	out := make([]complex128, k.Layout.NGOf[p])
	scale := complex(1/float64(k.Sphere.Grid.Size()), 0)
	par.ParallelFor(len(out), grainIndex, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = buf[fill[i]] * scale
		}
	})
	return out
}
