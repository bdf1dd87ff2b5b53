package core

import (
	"fmt"
	"math"

	"repro/internal/fftx"
)

// EnginesResult is the engine-selection matrix: the simulated cost-mode
// runtime of every engine across the rank sweep, plus the engine the
// EngineAuto cost-model selector picks at each point. It makes the
// selector's decision surface inspectable.
type EnginesResult struct {
	Engines []fftx.Engine
	Rows    []EnginesRow
}

// EnginesRow is one rank configuration of the matrix.
type EnginesRow struct {
	Ranks int
	// Runtime holds one entry per EnginesResult.Engines; NaN marks an
	// engine the configuration cannot run (lane budget, shape limits).
	Runtime []float64
	// Selected is the engine EngineAuto resolves to at this point.
	Selected fftx.Engine
}

// Fastest returns the applicable engine with the smallest measured runtime
// (ties keep declaration order, matching the selector's determinism).
func (r *EnginesRow) Fastest(engines []fftx.Engine) fftx.Engine {
	best, bestT := engines[0], math.Inf(1)
	for i, e := range engines {
		if t := r.Runtime[i]; !math.IsNaN(t) && t < bestT {
			best, bestT = e, t
		}
	}
	return best
}

// Engines measures the matrix over the suite's rank sweep.
func (s *Suite) Engines() (*EnginesResult, error) {
	out := &EnginesResult{
		Engines: []fftx.Engine{
			fftx.EngineOriginal, fftx.EngineTaskSteps,
			fftx.EngineTaskIter, fftx.EngineTaskCombined,
			fftx.EngineDataflow,
		},
	}
	for _, r := range s.RankList {
		row := EnginesRow{Ranks: r, Runtime: make([]float64, len(out.Engines))}
		for i, e := range out.Engines {
			res, err := s.run(s.config(e, r))
			if err != nil {
				// Not every engine fits every point (task-steps doubles the
				// lane count); an inapplicable cell is part of the matrix.
				row.Runtime[i] = math.NaN()
				continue
			}
			row.Runtime[i] = res.Runtime
		}
		sel, err := fftx.SelectEngine(s.config(fftx.EngineAuto, r))
		if err != nil {
			return nil, fmt.Errorf("core: engines %s: auto selection: %w", s.configName(r), err)
		}
		row.Selected = sel
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
