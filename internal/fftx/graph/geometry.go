package graph

import (
	"repro/internal/fft"
	"repro/internal/memo"
	"repro/internal/pw"
)

// The problem geometry is built once per shape and shared. A run, an auto
// probe, a parameter sweep and the serial reference on one shape all read
// the same Geometry, exactly as the miniapp builds its FFT descriptor once
// and reuses it for every band and iteration. The caches hold every shape
// the process has run; a process runs a bounded set of shapes.

// Shape is the key of a Geometry: exactly the inputs the sphere, the layout
// and the index maps depend on.
type Shape struct {
	// Ecut is the plane-wave energy cutoff in Ry; Alat the lattice
	// parameter in bohr.
	Ecut, Alat float64
	// Ranks is R: the positions a band's FFT is distributed over.
	Ranks int
	// Gamma selects the gamma-point half-sphere geometry.
	Gamma bool
}

// Geometry is the problem geometry of one Shape: the sphere, its layout
// over the positions, the FFT plans and the index maps the stage bodies
// and the instruction models read. It is shared by every run of the shape,
// from any goroutine, so it is immutable: nothing writes to it, or to
// anything it points to, after GeometryOf returns it.
type Geometry struct {
	Sphere *pw.Sphere
	Layout *pw.Layout
	PlanZ  *fft.Plan
	Plan2D *fft.Plan2D

	// StickFill[p][i] is the target index in position p's stick buffer
	// (stick-major, full Nz per stick) of local coefficient i.
	StickFill [][]int
	// GroupSticks is the stick order after the scatter (position-major).
	GroupSticks []int
	// StickPlaneIdx[gs] is the row-major (ix·Ny+iy) cell of group stick gs.
	StickPlaneIdx []int
	// GroupStickOffset[q] is the first group-stick index of position q.
	GroupStickOffset []int
	// GammaMinus[gs] is the plane cell of group stick gs's -column, -1 for
	// the self-conjugate zero stick (gamma shapes; nil otherwise).
	GammaMinus []int
}

// sphereKey is the key of a sphere: a layout over any rank count shares it.
type sphereKey struct {
	ecut, alat float64
	gamma      bool
}

// potKey is the key of the V(r) tables: they depend on the grid alone.
type potKey struct {
	grid pw.Grid
	unit bool
}

var (
	spheres    memo.Map[sphereKey, *pw.Sphere]
	geometries memo.Map[Shape, *Geometry]
	potentials memo.Map[potKey, *Potential]
)

// GeometryOf returns the shared geometry of sh, building it on the first
// request for sh in the process.
func GeometryOf(sh Shape) *Geometry { return geometries.Get(sh, newGeometry) }

// GeometryBuilds returns the number of geometries the process has built:
// one per distinct Shape requested.
func GeometryBuilds() int64 { return geometries.Builds() }

// SphereOf returns the shared G-vector sphere of a cutoff and cell: the
// Hermitian half-sphere when gamma is set.
func SphereOf(ecut, alat float64, gamma bool) *pw.Sphere {
	return spheres.Get(sphereKey{ecut, alat, gamma}, func(k sphereKey) *pw.Sphere {
		if k.gamma {
			return pw.NewSphereGamma(k.ecut, k.alat)
		}
		return pw.NewSphere(k.ecut, k.alat)
	})
}

func newGeometry(sh Shape) *Geometry {
	s := SphereOf(sh.Ecut, sh.Alat, sh.Gamma)
	l := pw.NewLayout(s, sh.Ranks)
	g := &Geometry{
		Sphere: s,
		Layout: l,
		PlanZ:  fft.DefaultCache.Get(s.Grid.Nz),
		Plan2D: fft.DefaultCache.Get2D(s.Grid.Nx, s.Grid.Ny),
	}
	nz := s.Grid.Nz
	g.StickFill = make([][]int, sh.Ranks)
	for p := 0; p < sh.Ranks; p++ {
		fill := make([]int, 0, l.NGOf[p])
		for sl, si := range l.SticksOf[p] {
			st := s.Stick[si]
			for _, kz := range st.Zs {
				iz := kz % nz
				if iz < 0 {
					iz += nz
				}
				fill = append(fill, sl*nz+iz)
			}
		}
		g.StickFill[p] = fill
	}
	g.GroupSticks = l.GroupStickOrder()
	g.StickPlaneIdx = make([]int, len(g.GroupSticks))
	for gs, si := range g.GroupSticks {
		g.StickPlaneIdx[gs] = s.PlaneIndex(s.Stick[si])
	}
	g.GroupStickOffset = make([]int, sh.Ranks+1)
	off := 0
	for q := 0; q < sh.Ranks; q++ {
		g.GroupStickOffset[q] = off
		off += l.NSticksOf(q)
	}
	g.GroupStickOffset[sh.Ranks] = off
	if sh.Gamma {
		g.GammaMinus = make([]int, len(g.GroupSticks))
		for gs, si := range g.GroupSticks {
			st := s.Stick[si]
			if st.IsZeroStick() {
				g.GammaMinus[gs] = -1
				continue
			}
			g.GammaMinus[gs] = s.MinusPlaneIndex(st)
		}
	}
	return g
}

// Potential holds the tables of the real-space local potential V(r) on
// one grid. Like a Geometry it is shared and immutable.
type Potential struct {
	// Vol is V over the whole grid, z-fastest.
	Vol []float64
	// Planes[z] is V at plane z, row-major (ix·Ny+iy).
	Planes [][]float64
}

// PotentialOf returns the shared V(r) tables of grid g, building them on
// first use; unit replaces V by 1 (the identity operator).
func PotentialOf(g pw.Grid, unit bool) *Potential {
	return potentials.Get(potKey{g, unit}, newPotential)
}

func newPotential(k potKey) *Potential {
	g := k.grid
	v := &Potential{Planes: make([][]float64, g.Nz)}
	if k.unit {
		v.Vol = make([]float64, g.Size())
		for i := range v.Vol {
			v.Vol[i] = 1
		}
	} else {
		v.Vol = pw.Potential(g)
	}
	for z := range v.Planes {
		v.Planes[z] = pw.PotentialPlane(g, v.Vol, z)
	}
	return v
}
