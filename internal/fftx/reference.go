package fftx

import (
	"repro/internal/fft"
	"repro/internal/fftx/graph"
	"repro/internal/pw"
)

// Reference computes the result of the miniapp serially: for every band,
// fill the full 3-D box, backward-transform to real space, multiply by
// V(r), forward-transform back and extract the sphere with 1/N scaling.
// Every engine's ModeReal output must match it to rounding error. It reads
// the sphere and V(r) the engines share (graph.SphereOf, graph.PotentialOf).
func Reference(cfg Config) [][]complex128 {
	s := graph.SphereOf(cfg.Ecut, cfg.Alat, false)
	bands := pw.WavefunctionBands(s, cfg.NB)
	pot := graph.PotentialOf(s.Grid, false).Vol
	plan := fft.NewPlan3D(s.Grid.Nx, s.Grid.Ny, s.Grid.Nz)
	box := make([]complex128, s.Grid.Size())
	out := make([][]complex128, cfg.NB)
	for b, coeffs := range bands {
		s.FillBox(box, coeffs)
		plan.Transform(box, fft.Backward) // G -> r, unscaled
		for i := range box {
			box[i] *= complex(pot[i], 0)
		}
		plan.Transform(box, fft.Forward) // r -> G
		res := make([]complex128, s.NG())
		s.ExtractBox(res, box)
		for i := range res {
			res[i] *= complex(1/float64(s.Grid.Size()), 0)
		}
		out[b] = res
	}
	return out
}
