// Package stagepure seeds violations of the stagepure rule: mpi/vtime/ompss
// calls inside graph.Stage closures, which must stay pure model/numeric code
// so every scheduler executes the same pipeline.
package stagepure

import (
	"repro/internal/fftx/graph"
	"repro/internal/knl"
	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/vtime"
)

// collectiveInBody wires a collective into a stage body: the scatter would
// run once per scheduler policy instead of once per graph contract.
func collectiveInBody(ctx *mpi.Ctx, c *mpi.Comm) graph.Stage {
	return graph.Stage{
		Name: "z-split", Step: "fft-z-fw", Class: knl.ClassMem,
		Body: func(s *graph.State, p int) {
			mpi.Alltoallv(ctx, c, 1, s.Chunks, 0) // want "Alltoallv calls internal/mpi in a graph.Stage Body closure"
		},
	}
}

// blockingInPart blocks the simulated runtime from a task-loop sub-range.
func blockingInPart(ctx *mpi.Ctx, c *mpi.Comm, q *vtime.Queue[int]) graph.Stage {
	return graph.Stage{
		Name: "fft-z", Step: "fft-z-fw", Class: knl.ClassStream,
		Split: graph.SplitSticks, LoopName: "cft_1z",
		Count: func(p int) int { return 4 },
		Part: func(s *graph.State, p, lo, hi int) {
			mpi.Alltoallv(ctx, c, 3, nil, 0) // want "Alltoallv calls internal/mpi in a graph.Stage Part closure"
			_, _ = q.Pop(ctx.Proc)           // want "Pop calls internal/vtime in a graph.Stage Part closure"
		},
	}
}

// computeInInstr charges simulated compute time from an instruction model,
// which every engine evaluates under its own policy.
func computeInInstr(ctx *mpi.Ctx) graph.Stage {
	return graph.Stage{
		Name: "vofr", Step: "vofr", Class: knl.ClassVector,
		Instr: func(p int) float64 {
			ctx.Compute("vofr", knl.ClassVector, 100) // want "Compute calls internal/mpi in a graph.Stage Instr closure"
			return 100
		},
	}
}

// submitInBytes submits a task from a communication-volume model.
func submitInBytes(proc *vtime.Proc, rt *ompss.Runtime) graph.Stage {
	return graph.Stage{
		Name: "scatter", Step: "scatter-fw", Kind: graph.Scatter,
		Bytes: func(p int) float64 {
			rt.Submit(proc, "band", nil, 0, func(w *ompss.Worker) {}) // want "Submit calls internal/ompss in a graph.Stage Bytes closure"
			return 0
		},
	}
}

// impureHelper is wired into a stage by reference below; the rule follows
// same-package function references, not just inline literals.
func impureHelper(s *graph.State, p int) {
	theCtx.Compute("prep", knl.ClassMem, 10) // want "Compute calls internal/mpi in a graph.Stage Body closure"
}

var theCtx *mpi.Ctx

func helperByReference() graph.Stage {
	return graph.Stage{
		Name: "prep", Step: "fft-z-fw", Class: knl.ClassMem,
		Body: impureHelper,
	}
}

// pureStage is the sanctioned shape: closures only touch plain data and the
// geometry models; the scheduler owns every runtime interaction.
func pureStage() graph.Stage {
	return graph.Stage{
		Name: "xy-fill", Step: "fft-xy-fw", Class: knl.ClassMem,
		Instr: func(p int) float64 { return 1e4 },
		Body: func(s *graph.State, p int) {
			for i := range s.Planes {
				s.Planes[i] *= 2
			}
		},
	}
}

// notAStage shows the rule is scoped: the same calls in an unrelated
// composite literal's closure are someone else's business.
type notAStage struct {
	body func(p int)
}

func unrelatedLiteral(ctx *mpi.Ctx) notAStage {
	return notAStage{
		body: func(p int) { ctx.Compute("x", knl.ClassMem, 1) },
	}
}
