package pw

import (
	"fmt"
	"sort"
)

// Layout distributes a sphere over R positions (the ranks inside one FFT
// task group): sticks are assigned to positions balancing the G-vector
// count (the stick phase of the pipeline), and the Nz grid planes are
// assigned as contiguous blocks (the plane phase after the scatter).
type Layout struct {
	S *Sphere
	R int

	// StickOwner maps stick index -> position.
	StickOwner []int
	// SticksOf lists, per position, its stick indices in canonical order.
	SticksOf [][]int
	// NGOf is the local G-vector count per position.
	NGOf []int
	// OwnerOf maps sphere G index -> owning position.
	OwnerOf []int
	// LocalIdx maps sphere G index -> index within the owner's local
	// coefficient ordering (stick-major in SticksOf order, z ascending).
	LocalIdx []int
	// PlaneLo/PlaneHi give each position's contiguous z-plane range
	// [PlaneLo[p], PlaneHi[p]).
	PlaneLo, PlaneHi []int
}

// NewLayout distributes the sphere over nproc positions.
func NewLayout(s *Sphere, nproc int) *Layout {
	if nproc <= 0 {
		panic(fmt.Sprintf("pw: invalid nproc %d", nproc))
	}
	l := &Layout{
		S:          s,
		R:          nproc,
		StickOwner: make([]int, s.NSticks()),
		SticksOf:   make([][]int, nproc),
		NGOf:       make([]int, nproc),
		OwnerOf:    make([]int, s.NG()),
		LocalIdx:   make([]int, s.NG()),
		PlaneLo:    make([]int, nproc),
		PlaneHi:    make([]int, nproc),
	}
	// Greedy balanced assignment: longest sticks first to the least loaded
	// position; deterministic tie-breaks.
	order := make([]int, s.NSticks())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := s.Stick[order[a]].Len(), s.Stick[order[b]].Len()
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	load := make([]int, nproc)
	for _, si := range order {
		best := 0
		for p := 1; p < nproc; p++ {
			if load[p] < load[best] {
				best = p
			}
		}
		l.StickOwner[si] = best
		load[best] += s.Stick[si].Len()
	}
	for si := range s.Stick {
		p := l.StickOwner[si]
		l.SticksOf[p] = append(l.SticksOf[p], si)
	}
	// Local coefficient ordering per position.
	for p := 0; p < nproc; p++ {
		idx := 0
		for _, si := range l.SticksOf[p] {
			st := s.Stick[si]
			for z := 0; z < st.Len(); z++ {
				gi := st.Off + z
				l.OwnerOf[gi] = p
				l.LocalIdx[gi] = idx
				idx++
			}
		}
		l.NGOf[p] = idx
	}
	// Contiguous plane blocks, remainder to the low positions.
	nz := s.Grid.Nz
	base, rem := nz/nproc, nz%nproc
	lo := 0
	for p := 0; p < nproc; p++ {
		sz := base
		if p < rem {
			sz++
		}
		l.PlaneLo[p] = lo
		l.PlaneHi[p] = lo + sz
		lo += sz
	}
	return l
}

// NPlanesOf returns the number of z planes owned by position p.
func (l *Layout) NPlanesOf(p int) int { return l.PlaneHi[p] - l.PlaneLo[p] }

// NSticksOf returns the number of sticks owned by position p.
func (l *Layout) NSticksOf(p int) int { return len(l.SticksOf[p]) }

// MaxNG returns the maximum local G count over positions (load-balance
// metric).
func (l *Layout) MaxNG() int {
	m := 0
	for _, n := range l.NGOf {
		if n > m {
			m = n
		}
	}
	return m
}

// Distribute splits a full-sphere coefficient vector into the per-position
// local vectors.
func (l *Layout) Distribute(coeffs []complex128) [][]complex128 {
	if len(coeffs) != l.S.NG() {
		panic(fmt.Sprintf("pw: Distribute with %d coeffs, sphere has %d", len(coeffs), l.S.NG()))
	}
	out := make([][]complex128, l.R)
	for p := range out {
		out[p] = make([]complex128, l.NGOf[p])
	}
	for gi, c := range coeffs {
		out[l.OwnerOf[gi]][l.LocalIdx[gi]] = c
	}
	return out
}

// Collect is the inverse of Distribute.
func (l *Layout) Collect(locals [][]complex128) []complex128 {
	out := make([]complex128, l.S.NG())
	for gi := range out {
		out[gi] = locals[l.OwnerOf[gi]][l.LocalIdx[gi]]
	}
	return out
}

// TaskChunks splits position p's local coefficients into ntg near-equal
// contiguous chunks (the unit the pack/unpack Alltoallv moves between task
// groups). It returns the ntg+1 chunk boundaries.
func (l *Layout) TaskChunks(p, ntg int) []int {
	bounds := make([]int, ntg+1)
	for g := 0; g < ntg; g++ {
		bounds[g+1] = bounds[g] + l.TaskChunkLen(p, g, ntg)
	}
	return bounds
}

// TaskChunkLen is the length of chunk g of TaskChunks(p, ntg): the low
// chunks take one coefficient each of the remainder.
func (l *Layout) TaskChunkLen(p, g, ntg int) int {
	n := l.NGOf[p]
	if g < n%ntg {
		return n/ntg + 1
	}
	return n / ntg
}

// GroupStickOrder returns all stick indices in "group order": position 0's
// sticks first, then position 1's, etc. After the scatter, each plane holds
// one value per stick in exactly this order.
func (l *Layout) GroupStickOrder() []int {
	out := make([]int, 0, l.S.NSticks())
	for p := 0; p < l.R; p++ {
		out = append(out, l.SticksOf[p]...)
	}
	return out
}

// ScatterCounts returns the per-destination element counts of the
// sticks→planes Alltoallv from position p: count[q] = nsticks(p)·nplanes(q).
func (l *Layout) ScatterCounts(p int) []int {
	out := make([]int, l.R)
	for q := 0; q < l.R; q++ {
		out[q] = l.NSticksOf(p) * l.NPlanesOf(q)
	}
	return out
}
