package serve

import (
	"strconv"
	"time"

	"repro/internal/fft"
	"repro/internal/par"
)

// Batch execution on the worker pool. A transform batch performs one plan
// lookup on the shared fft.Cache and fans its rows out over host cores via
// par.ParallelFor, so N coalesced single-transform requests cost one
// lookup plus one fan-out instead of N of each — the amortization the
// batching layer exists to buy.

// rowPlan is the shape-generic transform interface all three plan kinds
// satisfy.
type rowPlan interface {
	Transform(x []complex128, sign fft.Sign)
}

// planFor resolves the cached plan of a transform shape.
func (s *Server) planFor(dims []int) rowPlan {
	switch len(dims) {
	case 1:
		return s.cache.Get(dims[0])
	case 2:
		return s.cache.Get2D(dims[0], dims[1])
	case 3:
		return s.cache.Get3D(dims[0], dims[1], dims[2])
	}
	return nil
}

// worker drains the batch channel until the dispatcher closes it.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for g := range s.batches {
		s.runBatch(g)
	}
}

// runBatch executes one group: deadline-filters its tasks, runs the shared
// kernel and resolves every survivor.
func (s *Server) runBatch(g *group) {
	now := time.Now()
	s.taken(len(g.tasks))
	live := g.tasks[:0]
	for _, t := range g.tasks {
		t.coalesceSpan.EndAt(now)
		if t.expired(now) {
			mRejects.With("deadline").Inc()
			t.fail("deadline expired while batched")
			continue
		}
		live = append(live, t)
	}
	if len(live) == 0 {
		return
	}
	mInflight.Add(float64(len(live)))
	defer mInflight.Add(-float64(len(live)))
	if s.execHold != nil {
		<-s.execHold
	}
	s.runTransforms(g.key, live)
}

// runTransforms executes a same-shape transform batch in place — each
// task's result is left in its own payload buffer — and resolves every task
// with the batch size. A resolved task's buffer is the handler's again and is
// not touched here afterwards. Traced tasks get an exec span with
// plan/transform/scale children (shared batch timings: each request's wall
// time in those phases is the batch's).
func (s *Server) runTransforms(key string, live []*task) {
	req := live[0].req
	sign := signOf(req.Sign)
	n := req.NumElements()
	start := time.Now()

	plan := s.planFor(req.Dims)
	planDone := time.Now()
	rows := 0
	if len(live) == 1 {
		// Single-task fast path: the payload is already contiguous, so the
		// fft batch driver fans it out without building row views.
		rows = live[0].rows
		transformContiguous(plan, live[0].data, rows, sign)
	} else {
		views := make([][]complex128, 0, len(live))
		for _, t := range live {
			for b := 0; b < t.rows; b++ {
				views = append(views, t.data[b*n:(b+1)*n])
			}
		}
		rows = len(views)
		par.ParallelFor(rows, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				plan.Transform(views[i], sign)
			}
		})
	}
	transformDone := time.Now()
	if req.Scale {
		inv := 1 / float64(n)
		par.ParallelFor(len(live), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				fft.Scale(live[i].data, inv)
			}
		})
	}
	end := time.Now()

	mBatches.With(key).Inc()
	mBatchRows.With(key).Observe(float64(rows))
	mExecSeconds.With(key).Observe(end.Sub(start).Seconds())
	mPlanBuilds.Set(float64(s.cache.Builds()))

	engine := [...]string{"plan1d", "plan2d", "plan3d"}[len(req.Dims)-1]
	for _, t := range live {
		exec := t.root.BeginAt("exec", start)
		exec.SetAttr("rows", strconv.Itoa(rows))
		exec.SetAttr("engine", engine)
		planSpan := exec.BeginAt("plan", start)
		planSpan.EndAt(planDone)
		transformSpan := exec.BeginAt("transform", planDone)
		transformSpan.EndAt(transformDone)
		if req.Scale {
			scaleSpan := exec.BeginAt("scale", transformDone)
			scaleSpan.EndAt(end)
		}
		exec.EndAt(end)
		t.resolve(taskOutcome{batchSize: rows})
	}
}

// transformContiguous dispatches a contiguous multi-row payload to the
// shape-specific host-parallel batch driver.
func transformContiguous(plan rowPlan, data []complex128, count int, sign fft.Sign) {
	switch p := plan.(type) {
	case *fft.Plan:
		p.TransformBatch(data, count, sign)
	case *fft.Plan2D:
		p.TransformBatch(data, count, sign)
	case *fft.Plan3D:
		p.TransformBatch(data, count, sign)
	}
}
