// Package graph is the stage-graph IR of the fftx pipeline: the per-band
// transform (prep → fft-z → z-split → scatter → xy-fill → fft-xy → vofr →
// the mirror legs) expressed once as a declarative list of stages, built
// from the problem geometry by Kernel.Pipeline. Each stage carries its KNL
// intensity class, its analytic instruction model, its communication
// volume (scatter stages) and its pure-numeric data transform. Package
// fftx walks this one graph with one schedule executor; its five engines
// are rows of a policy table (static collectives, per-step tasks, per-band
// tasks, segment tasks with async scatters, and the same with a lookahead
// window and no taskwait).
//
// The package is deliberately runtime-free: it imports only the numeric
// and model layers (fft, knl, pw, par). Stage bodies must never call into
// mpi, vtime or ompss — synchronization, communication and compute-time
// accounting are the scheduler's job, enforced statically by fftxvet's
// stagepure rule.
package graph

import "repro/internal/knl"

// Kind separates pure-compute stages from the scatter collectives between
// them.
type Kind int

const (
	// Compute is a pure numeric stage charged as one compute phase.
	Compute Kind = iota
	// Scatter is a sticks↔planes Alltoallv edge; the scheduler owns the
	// communicator, the tag sequence and the synchronous/async policy.
	Scatter
)

// Split classifies how a compute stage can be partitioned into a nested
// task loop (the paper's Figure 4 cft_1z / cft_2xy task loops).
type Split int

const (
	// SplitNone marks an indivisible stage.
	SplitNone Split = iota
	// SplitSticks partitions over the position's stick set (cft_1z).
	SplitSticks
	// SplitPlanes partitions over the position's plane block (cft_2xy).
	SplitPlanes
)

// State carries one in-flight band (or band pair in gamma mode) between
// stages: the psis/aux buffers of the paper's Figure 4.
type State struct {
	// Job is the FFT job index: the band, or the band-pair index in gamma
	// mode. It keys the deterministic work-variance draws.
	Job int
	// Coeffs holds the position's local sphere coefficients; Coeffs2 is
	// the pair partner in gamma mode.
	Coeffs, Coeffs2 []complex128
	// ZBuf is the stick buffer (stick-major, full Nz per stick).
	ZBuf []complex128
	// Chunks are the scatter send/receive chunks currently in flight.
	Chunks [][]complex128
	// Planes is the position's XY-plane block in real space.
	Planes []complex128
	// Res holds the transformed local coefficients; Res2 the gamma pair
	// partner.
	Res, Res2 []complex128
}

// Stage is one node of the pipeline graph. All closures are built once by
// Kernel.Pipeline and are safe for concurrent position-disjoint use.
type Stage struct {
	// Name is the trace phase name of a compute stage ("prep", "fft-z",
	// ...) or "scatter" for collective edges. Phase names key the
	// deterministic jitter draws, so they are part of the contract.
	Name string
	// Step is the Figure-4 step this stage belongs to ("fft-z-fw",
	// "scatter-fw", ...); the per-step scheduler groups by it.
	Step string
	// Kind separates compute stages from scatter edges.
	Kind Kind
	// Class is the stage's KNL intensity class (compute stages).
	Class knl.Class
	// Instr models the stage's instruction count at position p (compute
	// stages; gamma scaling is already applied by the builder).
	Instr func(p int) float64
	// Bytes models the per-rank communication volume of a scatter edge.
	Bytes func(p int) float64
	// TagOff distinguishes the forward (0) and backward (1) scatter of
	// one job; the scheduler adds it to its tag base.
	TagOff int
	// Body is the stage's data transform on the state (ModeReal); nil for
	// scatter edges. Bodies are pure numeric — no mpi/vtime/ompss.
	Body func(s *State, p int)

	// Nested task-loop support (Split != SplitNone): LoopName is the task
	// label prefix ("cft_1z"/"cft_2xy"), Count the partition domain size
	// at position p, and Part the body for the sub-range [lo,hi); the
	// scheduler charges Instr scaled by the range fraction.
	Split    Split
	LoopName string
	Count    func(p int) int
	Part     func(s *State, p, lo, hi int)
}

// Step is one consecutive run of stages sharing a Step label — the task
// granularity of the per-step scheduler.
type Step struct {
	Label  string
	Stages []*Stage
}

// Graph is the built pipeline: the stage list in execution order.
type Graph struct {
	// Gamma records whether this is the gamma-point (band pair) variant.
	Gamma bool
	// Stages is the pipeline in execution order.
	Stages []Stage
}

// Steps groups the stages into consecutive same-label steps, preserving
// order.
func (g *Graph) Steps() []Step {
	var steps []Step
	for i := range g.Stages {
		st := &g.Stages[i]
		if n := len(steps); n > 0 && steps[n-1].Label == st.Step {
			steps[n-1].Stages = append(steps[n-1].Stages, st)
			continue
		}
		steps = append(steps, Step{Label: st.Step, Stages: []*Stage{st}})
	}
	return steps
}

// Segments splits the pipeline at its scatter edges: segs[i] is the
// compute run before scatters[i] (and segs[len(scatters)] the final run),
// which is exactly the decomposition of the segment task unit. A segment's
// index is its depth along the pipeline: a critical-path-first scheduler
// runs the deepest ready segment first.
func (g *Graph) Segments() (segs [][]*Stage, scatters []*Stage) {
	segs = [][]*Stage{nil}
	for i := range g.Stages {
		st := &g.Stages[i]
		if st.Kind == Scatter {
			scatters = append(scatters, st)
			segs = append(segs, nil)
			continue
		}
		segs[len(segs)-1] = append(segs[len(segs)-1], st)
	}
	return segs, scatters
}
