// Package ignores exercises //fftxvet:ignore bookkeeping: one comment that
// suppresses a real finding, and one stale comment on a clean line that the
// unused-ignore audit must report.
package ignores

type PlanWarm struct{ buf []complex128 }

func (p *PlanWarm) TransformGrow(n int) {
	p.buf = make([]complex128, n) //fftxvet:ignore hotalloc — one-time growth on the first call
}

func clean(out []float64) {
	//fftxvet:ignore hotalloc — stale: the scratch buffer below was hoisted away
	for i := range out {
		out[i] = 0
	}
}
