package graph

import (
	"repro/internal/fft"
	"repro/internal/pw"
)

// Spec describes the problem geometry and cost coefficients a Kernel is
// built from — the engine- and runtime-free subset of the fftx Config.
type Spec struct {
	// Ecut is the plane-wave energy cutoff in Ry; Alat the lattice
	// parameter in bohr.
	Ecut, Alat float64
	// Ranks is R: the positions a band's FFT is distributed over.
	Ranks int
	// Gamma selects the gamma-point half-sphere geometry.
	Gamma bool
	// RealData builds the V(r) tables for real-numerics runs.
	RealData bool
	// UnitPotential replaces V(r) by 1 (identity-operator testing).
	UnitPotential bool
	// InstrPerFlop and InstrPerByte are the KNL cost-model coefficients
	// of the instruction models.
	InstrPerFlop, InstrPerByte float64
}

// Kernel bundles the problem geometry, FFT plans and precomputed index
// maps the stage bodies and instruction models operate on. All exported
// fields are read-only after NewKernel.
type Kernel struct {
	Spec   Spec
	Sphere *pw.Sphere
	Layout *pw.Layout
	PlanZ  *fft.Plan
	Plan2D *fft.Plan2D
	Pot    []float64   // V(r), z-fastest volume (RealData)
	PotPl  [][]float64 // V per z-plane, row-major (RealData)

	// StickFill[p][i] is the target index in position p's stick buffer
	// (stick-major, full Nz per stick) of local coefficient i.
	StickFill [][]int
	// GroupSticks is the stick order after the scatter (position-major).
	GroupSticks []int
	// StickPlaneIdx[gs] is the row-major (ix·Ny+iy) cell of group stick gs.
	StickPlaneIdx []int
	// GroupStickOffset[q] is the first group-stick index of position q.
	GroupStickOffset []int
	// gammaMinus caches the -column plane cells (gamma mode), built lazily.
	gammaMinus []int
}

// NewKernel builds the geometry, plans and index maps of one problem.
func NewKernel(sp Spec) *Kernel {
	var s *pw.Sphere
	if sp.Gamma {
		s = pw.NewSphereGamma(sp.Ecut, sp.Alat)
	} else {
		s = pw.NewSphere(sp.Ecut, sp.Alat)
	}
	l := pw.NewLayout(s, sp.Ranks)
	k := &Kernel{
		Spec:   sp,
		Sphere: s,
		Layout: l,
		PlanZ:  fft.DefaultCache.Get(s.Grid.Nz),
		Plan2D: fft.DefaultCache.Get2D(s.Grid.Nx, s.Grid.Ny),
	}
	if sp.RealData {
		if sp.UnitPotential {
			k.Pot = make([]float64, s.Grid.Size())
			for i := range k.Pot {
				k.Pot[i] = 1
			}
		} else {
			k.Pot = pw.Potential(s.Grid)
		}
		k.PotPl = make([][]float64, s.Grid.Nz)
		for z := 0; z < s.Grid.Nz; z++ {
			k.PotPl[z] = pw.PotentialPlane(s.Grid, k.Pot, z)
		}
	}
	nz := s.Grid.Nz
	k.StickFill = make([][]int, sp.Ranks)
	for p := 0; p < sp.Ranks; p++ {
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
		k.StickFill[p] = fill
	}
	k.GroupSticks = l.GroupStickOrder()
	k.StickPlaneIdx = make([]int, len(k.GroupSticks))
	for gs, si := range k.GroupSticks {
		k.StickPlaneIdx[gs] = s.PlaneIndex(s.Stick[si])
	}
	k.GroupStickOffset = make([]int, sp.Ranks+1)
	off := 0
	for q := 0; q < sp.Ranks; q++ {
		k.GroupStickOffset[q] = off
		off += l.NSticksOf(q)
	}
	k.GroupStickOffset[sp.Ranks] = off
	return k
}

// --- instruction counts (position p, one band) ---

// InstrPack is the chunk reassembly cost of the task-group pack: read +
// write of the local coefficients.
func (k *Kernel) InstrPack(p int) float64 {
	return float64(k.Layout.NGOf[p]) * 2 * 16 * k.Spec.InstrPerByte
}

// InstrPrep is the zero-fill of the stick buffer plus the scatter of the
// coefficients.
func (k *Kernel) InstrPrep(p int) float64 {
	bytes := float64(k.Layout.NSticksOf(p)*k.Sphere.Grid.Nz)*16 + float64(k.Layout.NGOf[p])*2*16
	return bytes * k.Spec.InstrPerByte
}

// InstrFFTZ is the cost of the 1-D z transforms over the local sticks.
func (k *Kernel) InstrFFTZ(p int) float64 {
	return float64(k.Layout.NSticksOf(p)) * k.PlanZ.Flops() * k.Spec.InstrPerFlop
}

// InstrXYFill is the plane-assembly cost of the forward scatter receive.
func (k *Kernel) InstrXYFill(p int) float64 {
	g := k.Sphere.Grid
	bytes := float64(k.Layout.NPlanesOf(p)) * (float64(g.Nx*g.Ny)*16 + float64(len(k.GroupSticks))*2*16)
	return bytes * k.Spec.InstrPerByte
}

// InstrFFTXY is the cost of the 2-D transforms over the owned planes.
func (k *Kernel) InstrFFTXY(p int) float64 {
	return float64(k.Layout.NPlanesOf(p)) * k.Plan2D.Flops() * k.Spec.InstrPerFlop
}

// InstrVOfR is the complex × real multiply over the owned planes: 2 flops
// per point.
func (k *Kernel) InstrVOfR(p int) float64 {
	g := k.Sphere.Grid
	return float64(k.Layout.NPlanesOf(p)) * float64(g.Nx*g.Ny) * 2 * k.Spec.InstrPerFlop
}

// InstrXYExtract is the plane-disassembly cost of the backward scatter
// send.
func (k *Kernel) InstrXYExtract(p int) float64 {
	bytes := float64(k.Layout.NPlanesOf(p)) * float64(len(k.GroupSticks)) * 2 * 16
	return bytes * k.Spec.InstrPerByte
}

// InstrUnpack is the sphere extraction with backward scaling plus the
// chunk split.
func (k *Kernel) InstrUnpack(p int) float64 {
	return float64(k.Layout.NGOf[p])*2*k.Spec.InstrPerFlop +
		float64(k.Layout.NGOf[p])*2*16*k.Spec.InstrPerByte
}

// InstrZSplit is the stick-buffer split into scatter send chunks.
func (k *Kernel) InstrZSplit(p int) float64 {
	return float64(k.Layout.NSticksOf(p)*k.Sphere.Grid.Nz) * 2 * 16 * k.Spec.InstrPerByte
}

// InstrZFill is the stick-buffer reassembly from the backward scatter.
func (k *Kernel) InstrZFill(p int) float64 {
	return k.InstrZSplit(p)
}

// --- communication volumes (bytes a rank sends, one band) ---
//
// These are the only byte counts the exchanges charge, in both modes; a
// real-mode payload of any other size makes the exchange panic.

// BytesPack is the task-group pack volume of rank (p,g) with ntg task
// groups: chunk g (pw.Layout.TaskChunks) of each of the ntg bands of one
// iteration.
func (k *Kernel) BytesPack(p, g, ntg int) float64 {
	return float64(ntg*k.Layout.TaskChunkLen(p, g, ntg)) * 16
}

// BytesUnpack is the task-group unpack volume of a rank at position p: the
// position's local coefficients of the band it transformed.
func (k *Kernel) BytesUnpack(p int) float64 {
	return float64(k.Layout.NGOf[p]) * 16
}

// BytesScatterFw is the forward (sticks→planes) scatter volume: the full z
// columns of position p's sticks.
func (k *Kernel) BytesScatterFw(p int) float64 {
	return float64(k.Layout.NSticksOf(p)*k.Sphere.Grid.Nz) * 16
}

// BytesScatterBw is the backward (planes→sticks) scatter volume: every
// stick's cells in position p's planes.
func (k *Kernel) BytesScatterBw(p int) float64 {
	return float64(len(k.GroupSticks)*k.Layout.NPlanesOf(p)) * 16
}
