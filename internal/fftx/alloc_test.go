package fftx

import (
	"math"
	"testing"

	"repro/internal/fftx/graph"
	"repro/internal/knl"
)

// TestRunAllocsPerBand pins what a cost-mode run allocates as it grows: a
// run allocates per run, per rank and per exchange in flight, never per
// task, dependency edge, node name or posted scatter, so doubling the bands
// at a fixed rank layout adds next to nothing. The figure is the extra
// allocations per extra band between NB 16 and NB 32, each side the fewest
// over five single runs (the Go runtime adds a few allocations to some runs,
// never removes any). Before the node slab, the shared task body and the
// reused communication helpers, the engines read original 16.3, task-steps
// 97.3, task-iter 18.7, task-combined 81.3 and dataflow 89.1; the ceilings
// are the values measured after, rounded up. A count, so a loaded host
// cannot fail it.
func TestRunAllocsPerBand(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ceiling := map[Engine]float64{
		EngineOriginal:     1,
		EngineTaskSteps:    2,
		EngineTaskIter:     1,
		EngineTaskCombined: 1,
		EngineDataflow:     3,
	}
	for _, e := range []Engine{EngineOriginal, EngineTaskSteps, EngineTaskIter, EngineTaskCombined, EngineDataflow} {
		fewest := func(nb int) float64 {
			cfg := Config{Ecut: 20, Alat: 20, NB: nb, Ranks: 2, NTG: 4, Engine: e, Mode: ModeCost}
			best := math.Inf(1)
			for i := 0; i < 5; i++ {
				best = math.Min(best, testing.AllocsPerRun(1, func() {
					if _, err := Run(cfg); err != nil {
						t.Fatal(err)
					}
				}))
			}
			return best
		}
		small, large := fewest(16), fewest(32)
		perBand := (large - small) / 16
		t.Logf("%v: %.0f allocations at NB 16, %.0f at NB 32: %.1f per extra band", e, small, large, perBand)
		if perBand > ceiling[e] {
			t.Errorf("%v allocates %.1f per extra band, ceiling %.0f: something allocates per task, edge, name or post again",
				e, perBand, ceiling[e])
		}
	}
}

// TestStageClosuresAllocFree pins the stage-graph closures every engine
// calls per stage execution or task-loop partition: Instr, Bytes, Count
// and Part allocate nothing. It runs them on every position of the
// paper-scale geometry (80 Ry, alat 20, eight positions), in the complex
// and the gamma pipeline. Body is not pinned: it builds the band's State
// buffers by design. Part runs on a one-stick or one-plane range: the fft
// batch driver runs a stick on the caller and fans a plane's row and
// column passes out over par without allocating.
func TestStageClosuresAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	params := knl.DefaultParams()
	pin := func(gamma bool, st *graph.Stage, p int, closure string, fn func()) {
		t.Helper()
		fn()
		if got := testing.AllocsPerRun(10, fn); got != 0 {
			t.Errorf("gamma %v, stage %s/%s, position %d: %s allocates %v objects per call, want 0",
				gamma, st.Step, st.Name, p, closure, got)
		}
	}
	for _, gamma := range []bool{false, true} {
		k := &graph.Kernel{
			Geometry:     graph.GeometryOf(graph.Shape{Ecut: 80, Alat: 20, Ranks: 8, Gamma: gamma}),
			InstrPerFlop: params.InstrPerFlop,
			InstrPerByte: params.InstrPerByte,
		}
		g := k.Sphere.Grid
		stages := k.Pipeline(gamma).Stages
		for i := range stages {
			st := &stages[i]
			for p := 0; p < k.Layout.R; p++ {
				if st.Instr != nil {
					pin(gamma, st, p, "Instr", func() { st.Instr(p) })
				}
				if st.Bytes != nil {
					pin(gamma, st, p, "Bytes", func() { st.Bytes(p) })
				}
				if st.Count != nil {
					pin(gamma, st, p, "Count", func() { st.Count(p) })
				}
				if st.Part != nil {
					s := &graph.State{
						ZBuf:   make([]complex128, k.Layout.NSticksOf(p)*g.Nz),
						Planes: make([]complex128, k.Layout.NPlanesOf(p)*g.Nx*g.Ny),
					}
					pin(gamma, st, p, "Part", func() { st.Part(s, p, 0, 1) })
				}
			}
		}
	}
}
