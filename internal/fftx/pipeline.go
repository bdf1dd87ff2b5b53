package fftx

import (
	"repro/internal/fftx/graph"
	"repro/internal/mpi"
	"repro/internal/ompss"
)

// The stage walkers: how the schedule executor runs the nodes of the stage
// graph. Compute stages become jittered compute phases on the calling
// lane (with the real data transform in ModeReal); scatter stages become
// Alltoallv collectives charging the stage's Bytes, synchronous or
// asynchronous, whichever the policy row asks for (see schedule.walk).

// runStage executes one compute stage of the graph on ctx and reports
// whether it is done (see kernel.phase).
func (k *kernel) runStage(ctx *mpi.Ctx, st *graph.Stage, s *graph.State, p int) bool {
	var work func()
	if st.Body != nil {
		work = func() { st.Body(s, p) }
	}
	return k.phase(ctx, s.Job, p, st.Name, st.Class, st.Instr(p), work)
}

// partStage executes the [lo,hi) sub-range of a splittable compute stage,
// charging the proportional share of the stage's instructions — the body
// of the nested task loops (paper Figure 4, cft_1z/cft_2xy).
func (k *kernel) partStage(ctx *mpi.Ctx, st *graph.Stage, s *graph.State, p, lo, hi int) bool {
	frac := float64(hi-lo) / float64(st.Count(p))
	var work func()
	if st.Part != nil {
		work = func() { st.Part(s, p, lo, hi) }
	}
	return k.phase(ctx, s.Job, p, st.Name, st.Class, st.Instr(p)*frac, work)
}

// nestedLoop submits a splittable stage as a nested task loop executed by
// all of rank r's workers and returns its group, which worker wk waits for
// before continuing the step. Its chunk tasks are named n followed by their
// range.
func (x *schedule) nestedLoop(r *rank, wk *ompss.Worker, n ompss.Name, st *graph.Stage, s *graph.State) *ompss.Group {
	k := x.k
	grain := k.cfg.NestedGrainZ
	if st.Split == graph.SplitPlanes {
		grain = k.cfg.NestedGrainXY
	}
	grp := r.rt.NewGroup()
	r.rt.TaskLoopInGroup(wk.Proc, grp, n, st.Count(r.p), grain,
		func(w2 *ompss.Worker, lo, hi int) {
			k.partStage(&x.walker(r, w2).ctx, st, s, r.p, lo, hi)
		})
	return grp
}

// Run executes the configured engine and returns its result. EngineAuto
// resolves to the cost-model-fastest applicable engine first (see
// SelectEngine).
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	requestedAuto := cfg.Engine == EngineAuto
	if requestedAuto {
		e, err := selectEngine(cfg)
		if err != nil {
			return nil, err
		}
		mAutoSelected.With(e.String()).Inc()
		cfg.Engine = e
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mRuns.With(cfg.Engine.String()).Inc()
	mFreq.Set(cfg.Params.Freq)
	res, err := runEngine(cfg)
	if err == nil && requestedAuto {
		res.Trace.Meta["engine-requested"] = EngineAuto.String()
	}
	return res, err
}

// runEngine runs an already-validated, concrete-engine config under the
// engine's policy row.
func runEngine(cfg Config) (*Result, error) {
	pol, ok := policyOf(cfg.Engine)
	if !ok {
		return nil, errUnknownEngine(cfg.Engine)
	}
	return execute(cfg, pol)
}

type errUnknownEngine Engine

func (e errUnknownEngine) Error() string {
	return "fftx: unknown engine " + Engine(e).String()
}
