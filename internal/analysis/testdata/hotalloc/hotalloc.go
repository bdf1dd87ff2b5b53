// Package hotalloc seeds violations of the hotalloc rule: heap allocation
// on the zero-alloc transform hot paths — Transform* methods of Plan* types
// and the graph.Stage model closures (Instr/Bytes/Count/Part).
package hotalloc

import (
	"fmt"
	"sync"

	"repro/internal/fftx/graph"
	"repro/internal/knl"
)

// PlanLocal stands in for the fft plan types: the rule keys on the
// Plan*/Transform* shape, not a hard-coded list.
type PlanLocal struct {
	buf  []complex128
	pool sync.Pool
}

func (p *PlanLocal) TransformDirect(n int) {
	p.buf = make([]complex128, n) // want "make([]complex128) allocates in PlanLocal.TransformDirect"
}

// grow allocates at the bottom of a helper chain.
func grow(n int) []complex128 {
	return make([]complex128, n)
}

// scratch is the middle hop: it only forwards to grow.
func scratch(n int) []complex128 {
	return grow(n)
}

func (p *PlanLocal) TransformChained(n int) {
	p.buf = scratch(n) // want "hotalloc.scratch → hotalloc.grow → make"
}

func (p *PlanLocal) TransformFmt(n int) {
	fmt.Println(n) // want "fmt.Println (assumed to allocate) in PlanLocal.TransformFmt"
}

// TransformChecked shows the two sanctioned shapes: allocation inside a
// panic argument is the failure path, and a sync.Pool hit is the scratch
// protocol the contract asks for.
func (p *PlanLocal) TransformChecked(n int) {
	if n < 0 {
		panic(fmt.Sprintf("hotalloc: negative size %d", n))
	}
	s := p.pool.Get()
	defer p.pool.Put(s)
	for i := range p.buf {
		p.buf[i] *= 2
	}
}

// partAlloc is wired into a stage by reference below; its body is scanned
// like an inline literal.
func partAlloc(s *graph.State, p, lo, hi int) {
	s.ZBuf = append(s.ZBuf, 0) // want "append allocates in a graph.Stage Part closure"
}

func stageClosures() graph.Stage {
	return graph.Stage{
		Name: "z-model", Step: "fft-z-fw", Class: knl.ClassStream,
		Split: graph.SplitSticks, LoopName: "cft_1z",
		Instr: func(p int) float64 {
			w := make([]float64, 4) // want "make([]float64) allocates in a graph.Stage Instr closure"
			return w[0]
		},
		Count: func(p int) int { return 4 },
		Part:  partAlloc,
		// Body builds the band's State buffers: allocation by design.
		Body: func(s *graph.State, p int) {
			s.ZBuf = make([]complex128, 64)
		},
	}
}

// notHot shows the scoping: Transform methods on non-Plan receivers and
// plain functions are not hot roots.
type worker struct{ buf []float64 }

func (w *worker) TransformScratch(n int) {
	w.buf = make([]float64, n)
}

func TransformFree(n int) []float64 {
	return make([]float64, n)
}

// transformRowsLocal is an internal layout kernel: lowercase transform*
// methods on Plan* receivers are hot roots too — the batch drivers fan
// out to them.
func (p *PlanLocal) transformRowsLocal(rows int) {
	s := make([]float64, rows) // want "make([]float64) allocates in PlanLocal.transformRowsLocal"
	_ = s
}

// pureHelper only touches memory it is handed: its summary stays clean.
func pureHelper(xs []float64) {
	for i := range xs {
		xs[i] *= 2
	}
}
