package graph

// Kernel is one run's view of a shared Geometry: the geometry plus what
// the run adds to it, the cost coefficients of the instruction models and,
// in real-numerics runs, the V(r) tables. Building one costs nothing; its
// Geometry and Pot are shared read-only with every other run of the shape.
type Kernel struct {
	*Geometry
	// InstrPerFlop and InstrPerByte are the KNL cost-model coefficients
	// of the instruction models.
	InstrPerFlop, InstrPerByte float64
	// Pot is V(r) in real-numerics runs; nil in cost mode, where no stage
	// body runs.
	Pot *Potential
}

// --- instruction counts (position p, one band) ---

// InstrPack is the chunk reassembly cost of the task-group pack: read +
// write of the local coefficients.
func (k *Kernel) InstrPack(p int) float64 {
	return float64(k.Layout.NGOf[p]) * 2 * 16 * k.InstrPerByte
}

// InstrPrep is the zero-fill of the stick buffer plus the scatter of the
// coefficients.
func (k *Kernel) InstrPrep(p int) float64 {
	bytes := float64(k.Layout.NSticksOf(p)*k.Sphere.Grid.Nz)*16 + float64(k.Layout.NGOf[p])*2*16
	return bytes * k.InstrPerByte
}

// InstrFFTZ is the cost of the 1-D z transforms over the local sticks.
func (k *Kernel) InstrFFTZ(p int) float64 {
	return float64(k.Layout.NSticksOf(p)) * k.PlanZ.Flops() * k.InstrPerFlop
}

// InstrXYFill is the plane-assembly cost of the forward scatter receive.
func (k *Kernel) InstrXYFill(p int) float64 {
	g := k.Sphere.Grid
	bytes := float64(k.Layout.NPlanesOf(p)) * (float64(g.Nx*g.Ny)*16 + float64(len(k.GroupSticks))*2*16)
	return bytes * k.InstrPerByte
}

// InstrFFTXY is the cost of the 2-D transforms over the owned planes.
func (k *Kernel) InstrFFTXY(p int) float64 {
	return float64(k.Layout.NPlanesOf(p)) * k.Plan2D.Flops() * k.InstrPerFlop
}

// InstrVOfR is the complex × real multiply over the owned planes: 2 flops
// per point.
func (k *Kernel) InstrVOfR(p int) float64 {
	g := k.Sphere.Grid
	return float64(k.Layout.NPlanesOf(p)) * float64(g.Nx*g.Ny) * 2 * k.InstrPerFlop
}

// InstrXYExtract is the plane-disassembly cost of the backward scatter
// send.
func (k *Kernel) InstrXYExtract(p int) float64 {
	bytes := float64(k.Layout.NPlanesOf(p)) * float64(len(k.GroupSticks)) * 2 * 16
	return bytes * k.InstrPerByte
}

// InstrUnpack is the sphere extraction with backward scaling plus the
// chunk split.
func (k *Kernel) InstrUnpack(p int) float64 {
	return float64(k.Layout.NGOf[p])*2*k.InstrPerFlop +
		float64(k.Layout.NGOf[p])*2*16*k.InstrPerByte
}

// InstrZSplit is the stick-buffer split into scatter send chunks.
func (k *Kernel) InstrZSplit(p int) float64 {
	return float64(k.Layout.NSticksOf(p)*k.Sphere.Grid.Nz) * 2 * 16 * k.InstrPerByte
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
