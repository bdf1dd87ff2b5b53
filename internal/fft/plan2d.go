package fft

import (
	"fmt"
	"sync"
)

// colBlock is the number of columns gathered per cache block of the 2-D
// column pass: 32 columns × 16 bytes = one 512-byte row segment, small
// enough that the gathered block stays cache-resident through transform and
// scatter.
const colBlock = 32

// Plan2D transforms nx × ny planes stored row-major (index ix*ny + iy),
// the cft_2xy equivalent: a 1-D transform along y for every row followed by
// a 1-D transform along x for every column. The rows are one TransformMany
// batch; the columns are transposed colBlock at a time into a pooled
// contiguous buffer, transformed with TransformMany and transposed back.
type Plan2D struct {
	nx, ny int
	px, py *Plan
	colBuf sync.Pool // *[]complex128 of nx*colBlock
	// items fans out a multi-plane TransformBatch, cols the column blocks
	// of a one-plane one.
	items, cols fan
}

// NewPlan2D creates a plane transform for nx × ny grids. The per-axis
// plans resolve the radixAuto policy, so each axis gets the measured-best
// butterfly family for its length.
func NewPlan2D(nx, ny int) *Plan2D {
	p := &Plan2D{nx: nx, ny: ny, px: newPlanRadix(nx, radixAuto), py: newPlanRadix(ny, radixAuto)}
	p.colBuf.New = func() any {
		s := make([]complex128, nx*colBlock)
		return &s
	}
	p.items.init(p.itemRange)
	p.cols.init(p.colRange)
	return p
}

// Nx returns the slow (row) dimension.
func (p *Plan2D) Nx() int { return p.nx }

// Ny returns the fast (contiguous) dimension.
func (p *Plan2D) Ny() int { return p.ny }

// Flops returns the analytic flop count of one plane transform.
func (p *Plan2D) Flops() float64 {
	return float64(p.nx)*p.py.Flops() + float64(p.ny)*p.px.Flops()
}

// Transform computes the in-place 2-D transform of a row-major plane.
func (p *Plan2D) Transform(plane []complex128, sign Sign) {
	if len(plane) != p.nx*p.ny {
		panic(fmt.Sprintf("fft: Plan2D.Transform on %d elements, want %d", len(plane), p.nx*p.ny))
	}
	// Rows (contiguous along y).
	p.py.TransformMany(plane, p.nx, sign)
	p.colRange(plane, sign, 0, p.colBlocks())
}

// colBlocks is the number of colBlock-column blocks of the column pass.
func (p *Plan2D) colBlocks() int { return (p.ny + colBlock - 1) / colBlock }

// colRange runs the column pass over column blocks [lo,hi) of a plane:
// each block transposes up to colBlock columns into the contiguous buffer
// (rows are read sequentially), transforms them as a batch and transposes
// back.
func (p *Plan2D) colRange(plane []complex128, sign Sign, lo, hi int) {
	sp := p.colBuf.Get().(*[]complex128)
	buf := *sp
	for b := lo; b < hi; b++ {
		iy0 := b * colBlock
		nb := min(colBlock, p.ny-iy0)
		for ix := 0; ix < p.nx; ix++ {
			row := plane[ix*p.ny+iy0 : ix*p.ny+iy0+nb]
			for c, v := range row {
				buf[c*p.nx+ix] = v
			}
		}
		p.px.TransformMany(buf[:nb*p.nx], nb, sign)
		for ix := 0; ix < p.nx; ix++ {
			row := plane[ix*p.ny+iy0 : ix*p.ny+iy0+nb]
			for c := range row {
				row[c] = buf[c*p.nx+ix]
			}
		}
	}
	p.colBuf.Put(sp)
}

// zBlock is the number of z-planes gathered per pass of the 3-D transpose;
// each gather reads zBlock consecutive elements of every z-stick, so the
// stick traversal stays sequential instead of striding nz per plane.
const zBlock = 8

// Plan3D transforms nx × ny × nz boxes stored with z fastest
// (index (ix*ny+iy)*nz + iz). It is the serial reference used to validate
// the distributed pipeline: a 2-D transform of every z-plane cannot be
// expressed this way, so it composes per-stick z transforms with per-plane
// xy transforms exactly like the distributed kernel, but locally.
type Plan3D struct {
	nx, ny, nz int
	pz         *Plan
	pxy        *Plan2D
	planes     sync.Pool // *[]complex128 of nx*ny*zBlock
	// items fans out a multi-box TransformBatch, groups the plane groups
	// of a one-box one.
	items, groups fan
}

// NewPlan3D creates a 3-D transform for nx × ny × nz boxes.
func NewPlan3D(nx, ny, nz int) *Plan3D {
	p := &Plan3D{nx: nx, ny: ny, nz: nz, pz: newPlanRadix(nz, radixAuto), pxy: NewPlan2D(nx, ny)}
	p.planes.New = func() any {
		s := make([]complex128, nx*ny*zBlock)
		return &s
	}
	p.items.init(p.itemRange)
	p.groups.init(p.groupRange)
	return p
}

// Flops returns the analytic flop count of one 3-D transform.
func (p *Plan3D) Flops() float64 {
	return float64(p.nx*p.ny)*p.pz.Flops() + float64(p.nz)*p.pxy.Flops()
}

// Transform computes the in-place 3-D transform of a z-fastest box.
func (p *Plan3D) Transform(box []complex128, sign Sign) {
	if len(box) != p.nx*p.ny*p.nz {
		panic(fmt.Sprintf("fft: Plan3D.Transform on %d elements, want %d", len(box), p.nx*p.ny*p.nz))
	}
	// Z sticks are contiguous: one row batch.
	p.pz.TransformMany(box, p.nx*p.ny, sign)
	p.groupRange(box, sign, 0, p.zGroups())
}

// zGroups is the number of zBlock-plane groups of the xy pass.
func (p *Plan3D) zGroups() int { return (p.nz + zBlock - 1) / zBlock }

// groupRange runs the xy pass over plane groups [lo,hi) of a box. XY
// planes have stride nz between xy neighbors: each group gathers up to
// zBlock planes into the pooled buffer (blocked transpose), transforms
// them and scatters them back.
func (p *Plan3D) groupRange(box []complex128, sign Sign, lo, hi int) {
	nxy := p.nx * p.ny
	sp := p.planes.Get().(*[]complex128)
	buf := *sp
	for g := lo; g < hi; g++ {
		iz0 := g * zBlock
		nb := min(zBlock, p.nz-iz0)
		for ixy := 0; ixy < nxy; ixy++ {
			src := box[ixy*p.nz+iz0 : ixy*p.nz+iz0+nb]
			for dz, v := range src {
				buf[dz*nxy+ixy] = v
			}
		}
		for dz := 0; dz < nb; dz++ {
			p.pxy.Transform(buf[dz*nxy:(dz+1)*nxy], sign)
		}
		for ixy := 0; ixy < nxy; ixy++ {
			dst := box[ixy*p.nz+iz0 : ixy*p.nz+iz0+nb]
			for dz := range dst {
				dst[dz] = buf[dz*nxy+ixy]
			}
		}
	}
	p.planes.Put(sp)
}
