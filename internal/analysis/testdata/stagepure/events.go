package stagepure

// Event-graph cases: completing or waiting on a dependency node is runtime
// state like any other ompss entry point — a stage closure that did either
// would fire the release once per scheduler policy instead of once per the
// graph's contract.

import (
	"repro/internal/fftx/graph"
	"repro/internal/knl"
	"repro/internal/ompss"
	"repro/internal/vtime"
)

// eventRelease completes an event at the bottom of the chain.
func eventRelease(p *vtime.Proc, rt *ompss.Runtime, ev *ompss.Task) {
	rt.Complete(p, ev)
}

// releaseHelper is the middle hop: it only forwards to eventRelease.
func releaseHelper(p *vtime.Proc, rt *ompss.Runtime, ev *ompss.Task) {
	eventRelease(p, rt, ev)
}

func eventChainInBody(p *vtime.Proc, rt *ompss.Runtime, ev *ompss.Task) graph.Stage {
	return graph.Stage{
		Name: "release", Step: "fft-z-fw", Class: knl.ClassMem,
		Body: func(s *graph.State, pp int) {
			releaseHelper(p, rt, ev) // want "stagepure.releaseHelper → stagepure.eventRelease → ompss.Runtime.Complete"
		},
	}
}

func waitInInstr(p *vtime.Proc, rt *ompss.Runtime, ev *ompss.Task) graph.Stage {
	return graph.Stage{
		Name: "wait", Step: "fft-z-fw", Class: knl.ClassMem,
		Instr: func(pp int) float64 {
			rt.Wait(p, ev) // want "Wait calls internal/ompss in a graph.Stage Instr closure"
			return 1
		},
	}
}
