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
	// ops are the unit's steps, in walk order.
	ops []op
	// post is the trailing scatter an async row posts without blocking;
	// nil when the unit does not end in one or the row's scatters block.
	post *graph.Stage
	// depth is the unit's segment index, the prioDepth priority.
	depth int
}

// op is one step of a unit's walk.
type op struct {
	kind opKind
	// st is the stage of a stage, scatter, loop or post step.
	st *graph.Stage
	// loop is the static part of a nested loop's task names, as in
	// "fft-z.it" (the job's sequence number follows).
	loop string
}

// opKind says what a step of the walk does.
type opKind uint8

const (
	opPackExchange   opKind = iota // the grouped pack Alltoallv
	opPack                         // the pack phase
	opStage                        // a compute stage
	opScatter                      // a scatter the lane blocks in
	opLoop                         // a splittable stage as a nested task loop
	opUnpack                       // the unpack phase
	opUnpackExchange               // the grouped unpack Alltoallv
	opPost                         // the trailing scatter, posted to a communication thread
)

// intervals is the number of trace intervals the step records on its lane:
// a wait and a transfer per blocking exchange, one per compute phase, none
// for a posted scatter.
func (o opKind) intervals() int {
	switch o {
	case opPackExchange, opScatter, opUnpackExchange:
		return 2
	case opPost:
		return 0
	}
	return 1
}

// units cuts a job's walk into the row's tasks. nested runs the splittable
// stages as nested task loops.
func (pol policy) units(g *graph.Graph, nested bool) []unit {
	switch pol.unit {
	case unitStep:
		us := []unit{pol.cut("pack", true, false, nil, 0, nested)}
		for _, st := range g.Steps() {
			us = append(us, pol.cut(st.Label, false, false, st.Stages, 0, nested))
		}
		return append(us, pol.cut("unpack", false, true, nil, 0, nested))
	case unitSegment:
		segs, scatters := g.Segments()
		us := make([]unit, len(segs))
		for i, seg := range segs {
			if i < len(scatters) {
				seg = append(seg, scatters[i])
			}
			us[i] = pol.cut(fmt.Sprintf("seg%d", i), i == 0, i == len(segs)-1, seg, i, nested)
		}
		return us
	}
	all := make([]*graph.Stage, len(g.Stages))
	for i := range g.Stages {
		all[i] = &g.Stages[i]
	}
	return []unit{pol.cut("job", true, true, all, 0, nested)}
}

// cut makes the unit named name that walks stages — after the pack phase
// if pack is set, before the unpack phase if unpack is — at segment index
// depth.
func (pol policy) cut(name string, pack, unpack bool, stages []*graph.Stage, depth int, nested bool) unit {
	u := unit{name: name + ".", depth: depth}
	if n := len(stages); pol.async && n > 0 && stages[n-1].Kind == graph.Scatter {
		stages, u.post = stages[:n-1], stages[n-1]
		u.postName = u.post.Step + "."
	}
	if pack && pol.grouped {
		u.ops = append(u.ops, op{kind: opPackExchange})
	}
	if pack {
		u.ops = append(u.ops, op{kind: opPack})
	}
	for _, st := range stages {
		switch {
		case st.Kind == graph.Scatter:
			u.ops = append(u.ops, op{kind: opScatter, st: st})
		case nested && st.Split != graph.SplitNone:
			u.ops = append(u.ops, op{kind: opLoop, st: st, loop: st.LoopName + ".it"})
		default:
			u.ops = append(u.ops, op{kind: opStage, st: st})
		}
	}
	if unpack {
		u.ops = append(u.ops, op{kind: opUnpack})
	}
	if unpack && pol.grouped {
		u.ops = append(u.ops, op{kind: opUnpackExchange})
	}
	if u.post != nil {
		u.ops = append(u.ops, op{kind: opPost, st: u.post})
	}
	return u
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

// rank is one MPI rank of a run and, as a vtime.Resumer, the rank's own
// process: the driver that walks every job of a row without a task
// runtime, or the main process of a row with one.
type rank struct {
	x *schedule
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
	// walkers are the walk states of the processes that walk the rank's
	// units: the driver's, or the workers', by worker index, each worker's
	// set up on its first task.
	walkers []walker
	// next is the job the driver walks; a main process sets it past the
	// last job once it has submitted them.
	next int
	// join is the event a joining row's main process waits for.
	join *ompss.Task
}

// walker is the walk state of one process: its MPI context, the step of
// the unit it walks and the nested loop that unit waits for. A unit's walk
// runs on one process from its first step to its last — a task body is
// called again only on the worker that started it — so its program counter
// lives with the process, in storage the rank preallocates.
type walker struct {
	ctx  mpi.Ctx
	pc   int
	loop *ompss.Group
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
	gt    *grouped // top in the grouped topology, else nil
	units []unit
	ranks []*rank
	// lanes is the hardware-lane count of a rank: a worker on lane l
	// serves rank l/lanes.
	lanes int
	// body is the body of every task: it runs the unit the task names.
	body func(wk *ompss.Worker)
}

// execute runs cfg under policy row pol.
func execute(cfg Config, pol policy) (*Result, error) {
	return newSchedule(cfg, pol).run()
}

// run simulates the schedule and assembles its Result.
func (x *schedule) run() (*Result, error) { return x.finish(x.top.collect) }

// newSchedule builds the run of cfg under policy row pol — its harness,
// ranks and processes — ready to run. Every process is a state machine
// that the engine resumes by calling it: a run starts no goroutine.
func newSchedule(cfg Config, pol policy) *schedule {
	ranks, lanes := pol.layout(cfg)
	h := newHarness(cfg, ranks, lanes)
	// The paper nests task loops in its per-step version (Figure 4).
	nested := cfg.NestedLoops && pol.unit == unitStep
	x := &schedule{harness: h, pol: pol, units: pol.units(h.k.pipe, nested), lanes: lanes}
	x.body = x.runTask
	// A grouped rank runs every NTG-th job, starting at its group.
	stride := 1
	var world *mpi.Comm
	if pol.grouped {
		x.gt, stride = h.newGrouped(), cfg.NTG
		x.top = x.gt
	} else {
		x.top, world = h.newFlat(), h.w.CommWorld()
	}
	nseq := h.jobs() / stride
	h.tr.Intervals = make([]trace.Interval, 0, ranks*nseq*x.intervalsPerJob())
	x.ranks = make([]*rank, ranks)
	for id := range x.ranks {
		r := &rank{x: x, id: id, p: id, scat: world, jobs: make([]job, nseq)}
		x.ranks[id] = r
		if pol.grouped {
			r.p, r.g = id/cfg.NTG, id%cfg.NTG
			r.pack, r.scat = h.groupComms(r.p, r.g)
		}
		for seq := range r.jobs {
			r.jobs[seq].Job, r.jobs[seq].r = seq*stride+r.g, r
		}
		r.walkers = make([]walker, lanes)
		if pol.unit == unitInline {
			h.w.Spawn(&r.walkers[0].ctx, id, 0, r)
			continue
		}
		r.rt = h.newRankRuntime(id*lanes, lanes)
		r.rt.Reserve(x.nodes(nseq))
		r.arrivals = make([]*ompss.Task, nseq*len(x.units))
		h.eng.Spawn(fmt.Sprintf("rank%d.main", id), r)
	}
	return x
}

// intervalsPerJob bounds the trace intervals a job records on its rank:
// its steps' intervals, and a runtime and an idle interval per task. Only
// nested loops, whose chunk tasks the bound leaves out, grow the trace past
// it.
func (x *schedule) intervalsPerJob() int {
	n := 0
	for _, u := range x.units {
		for _, o := range u.ops {
			n += o.kind.intervals()
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

// Resume is a turn of the rank's own process. A driver walks the rank's
// jobs in order. A main process submits every job, then ends as the row
// says: on a join event over every job's last node, or at a Taskwait
// barrier.
func (r *rank) Resume(p *vtime.Proc) {
	x, rt := r.x, r.rt
	if rt == nil {
		for ; r.next < len(r.jobs); r.next++ {
			if !x.walk(r, 0, r.next, &r.walkers[0], nil) {
				return
			}
		}
		return
	}
	if r.next < len(r.jobs) {
		last := x.submit(p, r)
		r.next = len(r.jobs)
		if x.pol.join {
			r.join = rt.Event(p, "jobs", last)
		}
	}
	if r.join != nil {
		if !rt.Wait(p, r.join) {
			return
		}
	} else if !rt.Taskwait(p) {
		return
	}
	rt.Shutdown(p)
}

// submit submits every job of rank r and returns each job's last node. A
// windowed row's job also waits on the last node of the job as many places
// earlier as the rank has workers.
func (x *schedule) submit(mp *vtime.Proc, r *rank) []*ompss.Task {
	window := r.rt.Workers()
	last := make([]*ompss.Task, len(r.jobs))
	for seq := range last {
		var first *ompss.Task
		if x.pol.window && seq >= window {
			first = last[seq-window]
		}
		last[seq] = x.submitJob(mp, r, seq, first)
	}
	return last
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

// runTask is the body of every task: it walks, on the worker, the unit and
// job the task's name gives, for the rank the worker's lane belongs to.
func (x *schedule) runTask(wk *ompss.Worker) {
	n := wk.Running()
	r := x.ranks[wk.Lane/x.lanes]
	x.walk(r, n.Unit, n.Seq, x.walker(r, wk), wk)
}

// walker returns the walk state of worker wk of rank r.
func (x *schedule) walker(r *rank, wk *ompss.Worker) *walker {
	wl := &r.walkers[wk.Lane%x.lanes]
	if ctx := &wl.ctx; ctx.Proc == nil {
		ctx.W, ctx.Proc, ctx.Rank, ctx.Lane = x.w, wk.Proc, r.id, wk.Lane
	}
	return wl
}

// walk runs unit ui of the job at seq on walker wl: the rank's driver for
// inline rows, else worker wk's. It reports whether the unit is done. A
// step that suspends the process — or, on a worker, books the wait for a
// nested loop — returns false, and the walk, called again when the process
// next runs, goes on from that step (wl.pc). A posted scatter completes the
// unit's arrival event once it has landed.
func (x *schedule) walk(r *rank, ui, seq int, wl *walker, wk *ompss.Worker) bool {
	k, u, j, ctx := x.k, &x.units[ui], &r.jobs[seq], &wl.ctx
	s := &j.State
	for ; wl.pc < len(u.ops); wl.pc++ {
		o := &u.ops[wl.pc]
		switch o.kind {
		case opPackExchange:
			if !x.gt.packExchange(ctx, r, seq, s) {
				return false
			}
		case opPack:
			if !x.top.pack(ctx, r, seq, s) {
				return false
			}
		case opStage:
			if !k.runStage(ctx, o.st, s, r.p) {
				return false
			}
		case opScatter:
			// Tag base 2·seq: the job's forward and backward scatters
			// differ by TagOff. s.Chunks is nil in ModeCost.
			recv, done := ctx.Exchange(r.scat, 2*seq+o.st.TagOff, s.Chunks, o.st.Bytes(r.p))
			if !done {
				return false
			}
			s.Chunks = recv
		case opLoop:
			if wl.loop == nil {
				wl.loop = x.nestedLoop(r, wk, ompss.Name{Text: o.loop, Seq: seq}, o.st, s)
			}
			if !wl.loop.Wait(wk) {
				return false
			}
			wl.loop = nil
		case opUnpack:
			if !x.top.unpack(ctx, r, seq, s) {
				return false
			}
		case opUnpackExchange:
			if !x.gt.unpackExchange(ctx, r, seq, s) {
				return false
			}
		case opPost:
			j.posted = r.arrivals[seq*len(x.units)+ui]
			mpi.IAlltoallv(ctx, r.scat, 2*seq+o.st.TagOff, s.Chunks, o.st.Bytes(r.p), j)
		}
	}
	wl.pc = 0
	return true
}
