package fftx

import (
	"fmt"

	"repro/internal/fftx/graph"
	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// The schedule executor. Every engine walks the same stage graph; what
// tells them apart is one row of the policies table: how the lanes are
// arranged into ranks, how a job's walk is cut into tasks, whether scatters
// block, which ready task runs first, how many jobs a rank keeps in flight,
// and how the rank's main process ends. One executor reads the row; it
// never asks which engine it runs.

// taskUnit is how a policy row cuts a job's walk — pack, the stage graph,
// unpack — into tasks.
type taskUnit int

const (
	// unitInline walks every job on the rank's own MPI process; the row
	// has no task runtime.
	unitInline taskUnit = iota
	// unitStep makes the pack, every Figure-4 step (Graph.Steps) and the
	// unpack one task each.
	unitStep
	// unitJob makes a job's whole walk one task.
	unitJob
	// unitSegment makes every compute segment between scatters
	// (Graph.Segments) one task, the pack riding on the first and the
	// unpack on the last.
	unitSegment
)

// priority is the ready-queue priority rule of a policy row.
type priority int

const (
	// prioNone gives every task priority 0: ready tasks run in submission
	// order.
	prioNone priority = iota
	// prioIter gives a task minus its iteration: older iterations first.
	prioIter
	// prioDepth gives a task its segment index, so the job furthest along
	// its pipeline runs first (critical path first).
	prioDepth
)

// policy is one engine's row of the schedule table.
type policy struct {
	// grouped selects the topology: R·T MPI ranks in T task groups, a job
	// packed over the group's pack communicator and scattered over the
	// group's R ranks; or R ranks of NTG lanes each (NTG = 1), a job's
	// scatter spanning every rank.
	grouped bool
	// unit is the task granularity.
	unit taskUnit
	// async posts a task's trailing scatter from a communication thread;
	// the job's next task waits on the scatter's arrival event instead of
	// a lane blocking in MPI.
	async bool
	// prio orders the ready tasks.
	prio priority
	// window bounds the jobs in flight on a rank to its worker count: a
	// job's first task also waits on the last node of the job that many
	// places earlier.
	window bool
	// join ends the rank's main process on a join event over every job's
	// last node instead of a Taskwait barrier.
	join bool
}

// policies has one row per concrete engine.
var policies = [...]policy{
	EngineOriginal:     {grouped: true, unit: unitInline},
	EngineTaskSteps:    {grouped: true, unit: unitStep, prio: prioIter},
	EngineTaskIter:     {unit: unitJob},
	EngineTaskCombined: {unit: unitSegment, async: true},
	EngineDataflow:     {unit: unitSegment, async: true, prio: prioDepth, window: true, join: true},
}

// policyOf returns the row of a concrete engine; EngineAuto has none.
func policyOf(e Engine) (policy, bool) {
	if e < 0 || int(e) >= len(policies) {
		return policy{}, false
	}
	return policies[e], true
}

// defaultStepWorkers is the lane count of a grouped rank with a task
// runtime when Config.StepWorkers is unset.
const defaultStepWorkers = 2

// layout returns the MPI rank count and the hardware lanes per rank of the
// row: one lane per grouped rank without a task runtime, StepWorkers with
// one, NTG per rank in the flat topology.
func (pol policy) layout(c Config) (ranks, perRank int) {
	switch {
	case !pol.grouped:
		return c.Ranks, c.NTG
	case pol.unit == unitInline:
		return c.Ranks * c.NTG, 1
	case c.StepWorkers > 0:
		return c.Ranks * c.NTG, c.StepWorkers
	}
	return c.Ranks * c.NTG, defaultStepWorkers
}

// unit is one task's share of a job's walk.
type unit struct {
	// name and postName are the static parts of the names of the unit's
	// task and of its posted scatter's arrival event; the job's sequence
	// number completes them, as in "seg0.12".
	name, postName string
	pack, unpack   bool
	stages         []*graph.Stage
	// post is the trailing scatter an async row posts without blocking;
	// nil when the unit does not end in one or the row's scatters block.
	post *graph.Stage
	// comm says whether the unit needs an MPI context.
	comm bool
	// depth is the unit's segment index, the prioDepth priority.
	depth int
}

// units cuts a job's walk into the row's tasks.
func (pol policy) units(g *graph.Graph) []unit {
	var us []unit
	switch pol.unit {
	case unitStep:
		us = append(us, unit{name: "pack", pack: true})
		for _, st := range g.Steps() {
			us = append(us, unit{name: st.Label, stages: st.Stages})
		}
		us = append(us, unit{name: "unpack", unpack: true})
	case unitSegment:
		segs, scatters := g.Segments()
		for i, seg := range segs {
			u := unit{name: fmt.Sprintf("seg%d", i), stages: seg, depth: i}
			if i < len(scatters) {
				u.stages = append(seg, scatters[i])
			}
			us = append(us, u)
		}
		us[0].pack = true
		us[len(us)-1].unpack = true
	default:
		all := make([]*graph.Stage, len(g.Stages))
		for i := range g.Stages {
			all[i] = &g.Stages[i]
		}
		us = []unit{{name: "job", pack: true, unpack: true, stages: all}}
	}
	for i := range us {
		u := &us[i]
		u.name += "."
		if n := len(u.stages); pol.async && n > 0 && u.stages[n-1].Kind == graph.Scatter {
			u.stages, u.post = u.stages[:n-1], u.stages[n-1]
			u.postName = u.post.Step + "."
		}
		u.comm = u.post != nil || (pol.grouped && (u.pack || u.unpack))
		for _, st := range u.stages {
			u.comm = u.comm || st.Kind == graph.Scatter
		}
	}
	return us
}

// priority is the ready-queue priority of unit u of the job at seq.
func (pol policy) priority(u *unit, seq int) int {
	switch pol.prio {
	case prioIter:
		return -seq
	case prioDepth:
		return u.depth
	}
	return 0
}

// rank is one MPI rank of a run.
type rank struct {
	// id is the world rank, p its position in the task group (the
	// Layout's rank) and g its task group (0 in the flat topology).
	id, p, g int
	// pack is the grouped topology's pack communicator; scat is the
	// communicator the rank's scatters run on.
	pack, scat *mpi.Comm
	// rt is the rank's task runtime, nil for rows without one.
	rt *ompss.Runtime
	// jobs are the rank's jobs, by sequence number.
	jobs []job
	// arrivals[seq·len(units)+i] is the arrival event of the scatter unit
	// i of the job at seq posts.
	arrivals []*ompss.Task
	// ctxs are the MPI contexts of the rank's workers, by worker index,
	// each built on its worker's first communicating task.
	ctxs []mpi.Ctx
}

// job is one job of a rank: the state its walk carries, and the arrival
// event its posted scatter in flight completes (a job's next unit waits
// for that arrival, so it has at most one in flight).
type job struct {
	graph.State
	r      *rank
	posted *ompss.Task
}

// Done implements mpi.Done: the posted scatter has landed.
func (j *job) Done(hp *vtime.Proc, recv [][]complex128) {
	j.Chunks = recv
	j.r.rt.Complete(hp, j.posted)
}

// schedule is one run of the executor.
type schedule struct {
	*harness
	pol   policy
	top   topology
	units []unit
	ranks []*rank
	// lanes is the hardware-lane count of a rank: a worker on lane l
	// serves rank l/lanes.
	lanes int
	// body is the body of every task: it runs the unit the task names.
	body func(wk *ompss.Worker)
	// nested splits the splittable stages of step units into nested task
	// loops (Config.NestedLoops; the paper nests them in its per-step
	// version, Figure 4).
	nested bool
	// loopNames are the static parts of the nested loops' task names, by
	// stage, as in "fft-z.it" (the job's sequence number follows).
	loopNames map[*graph.Stage]string
}

// execute runs cfg under policy row pol.
func execute(cfg Config, pol policy) (*Result, error) {
	ranks, lanes := pol.layout(cfg)
	h := newHarness(cfg, ranks, lanes)
	x := &schedule{harness: h, pol: pol, units: pol.units(h.k.pipe), lanes: lanes,
		nested: cfg.NestedLoops && pol.unit == unitStep}
	x.body = x.runTask
	if x.nested {
		x.loopNames = map[*graph.Stage]string{}
		for _, u := range x.units {
			for _, st := range u.stages {
				if st.Split != graph.SplitNone {
					x.loopNames[st] = st.LoopName + ".it"
				}
			}
		}
	}
	// A grouped rank runs every NTG-th job, starting at its group.
	stride := 1
	var world *mpi.Comm
	if pol.grouped {
		x.top, stride = h.newGrouped(), cfg.NTG
	} else {
		x.top, world = h.newFlat(), h.w.CommWorld()
	}
	nseq := h.jobs() / stride
	h.tr.Intervals = make([]trace.Interval, 0, ranks*nseq*x.intervalsPerJob())
	x.ranks = make([]*rank, ranks)
	for id := range x.ranks {
		r := &rank{id: id, p: id, scat: world, jobs: make([]job, nseq)}
		x.ranks[id] = r
		if pol.grouped {
			r.p, r.g = id/cfg.NTG, id%cfg.NTG
			r.pack, r.scat = h.groupComms(r.p, r.g)
		}
		for seq := range r.jobs {
			r.jobs[seq].Job, r.jobs[seq].r = seq*stride+r.g, r
		}
		if pol.unit == unitInline {
			h.w.Spawn(id, 0, func(ctx *mpi.Ctx) {
				for seq := 0; seq < nseq; seq++ {
					x.run(r, 0, ctx, nil, seq)
				}
			})
			continue
		}
		r.rt = h.newRankRuntime(id*lanes, lanes)
		r.rt.Reserve(x.nodes(nseq))
		r.arrivals = make([]*ompss.Task, nseq*len(x.units))
		r.ctxs = make([]mpi.Ctx, lanes)
		h.eng.Spawn(fmt.Sprintf("rank%d.main", id), func(mp *vtime.Proc) {
			x.submit(mp, r, nseq)
		})
	}
	return h.finish(x.top.collect)
}

// intervalsPerJob bounds the trace intervals a job records on its rank:
// one per compute phase, a wait and a transfer per blocking exchange, and
// a runtime and an idle interval per task. Only nested loops, whose chunk
// tasks the bound leaves out, grow the trace past it.
func (x *schedule) intervalsPerJob() int {
	n := 0
	for _, u := range x.units {
		for _, edge := range [...]bool{u.pack, u.unpack} {
			if edge {
				n++ // the pack or unpack phase
				if x.pol.grouped {
					n += 2 // and its exchange over the pack communicator
				}
			}
		}
		for _, st := range u.stages {
			n++
			if st.Kind == graph.Scatter {
				n++
			}
		}
		if x.pol.unit != unitInline {
			n += 2
		}
	}
	return n
}

// nodes is the graph-node count of nseq jobs on a rank: one task per unit,
// one arrival event per posted scatter, and the join of a joining row.
func (x *schedule) nodes(nseq int) int {
	n := len(x.units)
	for i := range x.units {
		if x.units[i].post != nil {
			n++
		}
	}
	n *= nseq
	if x.pol.join {
		n++
	}
	return n
}

// submit is the main process of a rank with a task runtime: it submits
// every job, then ends as the row says.
func (x *schedule) submit(mp *vtime.Proc, r *rank, nseq int) {
	rt, pol := r.rt, x.pol
	window := rt.Workers()
	last := make([]*ompss.Task, nseq) // every job's last node
	for seq := range last {
		var first *ompss.Task
		if pol.window && seq >= window {
			first = last[seq-window]
		}
		last[seq] = x.submitJob(mp, r, seq, first)
	}
	if pol.join {
		rt.Wait(mp, rt.Event(mp, "jobs", last))
	} else {
		rt.Taskwait(mp)
	}
	rt.Shutdown(mp)
}

// submitJob submits the units of the job at seq as tasks, each after the
// job's previous node — the task before it, or that task's scatter
// arrival; the first unit after prev — and returns the job's last node.
// Every task runs the schedule's one body, which reads the job and unit
// from the task's name.
func (x *schedule) submitJob(mp *vtime.Proc, r *rank, seq int, prev *ompss.Task) *ompss.Task {
	for i := range x.units {
		u := &x.units[i]
		var arrival *ompss.Task
		if u.post != nil {
			arrival = r.rt.EventNamed(mp, ompss.Name{Text: u.postName, Seq: seq}, nil)
			r.arrivals[seq*len(x.units)+i] = arrival
		}
		prev = r.rt.SubmitNamed(mp, ompss.Name{Text: u.name, Seq: seq, Unit: i}, []*ompss.Task{prev},
			x.pol.priority(u, seq), x.body)
		if arrival != nil {
			prev = arrival
		}
	}
	return prev
}

// runTask is the body of every task: it runs, on the worker, the unit and
// job the task's name gives, for the rank the worker's lane belongs to.
func (x *schedule) runTask(wk *ompss.Worker) {
	n := wk.Running()
	x.run(x.ranks[wk.Lane/x.lanes], n.Unit, nil, wk, n.Seq)
}

// ctx returns the MPI context of worker wk of rank r.
func (x *schedule) ctx(r *rank, wk *ompss.Worker) *mpi.Ctx {
	ctx := &r.ctxs[wk.Lane%x.lanes]
	if ctx.Proc == nil {
		ctx.W, ctx.Proc, ctx.Rank, ctx.Lane = x.w, wk.Proc, r.id, wk.Lane
	}
	return ctx
}

// run executes unit ui of the job at seq: on the rank's own MPI process
// ctx for inline rows, else on worker wk. A posted scatter completes the
// unit's arrival event once it has landed.
func (x *schedule) run(r *rank, ui int, ctx *mpi.Ctx, wk *ompss.Worker, seq int) {
	k, u, j := x.k, &x.units[ui], &r.jobs[seq]
	s := &j.State
	var c computer = ctx
	if wk != nil {
		c = wk
		if u.comm {
			ctx = x.ctx(r, wk)
		}
	}
	if u.pack {
		x.top.pack(c, ctx, r, seq, s)
	}
	for _, st := range u.stages {
		switch {
		case st.Kind == graph.Scatter:
			// Tag base 2·seq: the job's forward and backward scatters
			// differ by TagOff. s.Chunks is nil in ModeCost.
			s.Chunks = mpi.Alltoallv(ctx, r.scat, 2*seq+st.TagOff, s.Chunks, st.Bytes(r.p))
		case x.nested && st.Split != graph.SplitNone:
			k.nestedLoop(r.rt, wk, ompss.Name{Text: x.loopNames[st], Seq: seq}, st, s, r.p)
		default:
			k.runStage(c, st, s, r.p)
		}
	}
	if u.unpack {
		x.top.unpack(c, ctx, r, seq, s)
	}
	if u.post != nil {
		j.posted = r.arrivals[seq*len(x.units)+ui]
		mpi.IAlltoallv(ctx, r.scat, 2*seq+u.post.TagOff, s.Chunks, u.post.Bytes(r.p), j)
	}
}
