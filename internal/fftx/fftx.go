// Package fftx reproduces the FFTXlib miniapp: the FFT kernel of Quantum
// ESPRESSO that applies a real-space local potential to a set of bands
// (forward FFT of each wavefunction from reciprocal to real space, multiply
// by V(r), backward FFT), distributed with the two-layer MPI scheme of the
// paper's Figure 1 (task-group pack/unpack + sticks→planes scatter).
//
// The per-band pipeline is a declarative stage graph (package
// fftx/graph) built once from the problem geometry. One schedule executor
// walks it; each engine is a row of its policy table (schedule.go):
//
//   - EngineOriginal — the baseline: R·T single-threaded MPI ranks arranged
//     as T FFT task groups of R positions each, statically synchronized by
//     the collectives (paper Figure 1).
//   - EngineTaskSteps — optimization 1 (paper Figure 4): the same MPI
//     layout, but every step of the pipeline is an OmpSs task with flow
//     dependencies; several loop iterations are in flight per rank, so
//     communication overlaps computation.
//   - EngineTaskIter — optimization 2 (paper Figure 5): the task-group MPI
//     layer is replaced by threads (R ranks × T workers, NTG = 1); every
//     band's whole pipeline is one task, scheduled asynchronously, which
//     de-synchronizes the compute phases and softens resource contention.
//   - EngineTaskCombined — the future-work combination: per-band segment
//     tasks with asynchronous, communication-thread-driven scatters.
//   - EngineDataflow — the combined schedule with critical-path-first
//     priorities, a lookahead window of one band per worker, and no
//     taskwait barrier: the rank's main process parks on a join event.
//   - EngineAuto — a cost-model-driven selector: it probes the applicable
//     engines in ModeCost against the calibrated knl model and runs the
//     fastest for the given (grid, ranks, NTG, threads) point.
//
// In ModeReal the engines move and transform actual wavefunction data and
// all produce identical results (verified against a serial reference); in
// ModeCost they charge identical instruction counts and communication
// volumes without touching data, which is what the paper reproduction
// benchmarks use at full problem size. Both modes run the same code path:
// every exchange charges the stage graph's volume, and ModeCost merely
// passes no payload, so the two modes' runtimes and traces are
// bit-identical (TestGoldenEngineDigests).
package fftx

import (
	"fmt"

	"repro/internal/fftx/graph"
	"repro/internal/knl"
	"repro/internal/mpi"
	"repro/internal/pw"
	"repro/internal/trace"
)

// Engine selects the execution strategy.
type Engine int

const (
	// EngineOriginal is the static task-group baseline (Figure 1).
	EngineOriginal Engine = iota
	// EngineTaskSteps is the per-step task version (Figure 4).
	EngineTaskSteps
	// EngineTaskIter is the per-iteration task version (Figure 5).
	EngineTaskIter
	// EngineTaskCombined is the paper's future-work combination: per-band
	// tasks with asynchronous, communication-thread-driven scatters, so
	// communication overlaps computation AND phases de-synchronize.
	EngineTaskCombined
	// EngineDataflow is the combined engine's segment tasks under a
	// different policy row (see schedule.go): each released by successor
	// counting the moment its scatter's arrival event completes,
	// critical-path-first priorities, at most one band per worker in
	// flight, and no taskwait barrier anywhere — the rank's main process
	// parks on a single join event.
	EngineDataflow
	// EngineAuto probes the applicable engines in ModeCost and runs the
	// fastest for the configured workload shape (see auto.go).
	EngineAuto
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineOriginal:
		return "original"
	case EngineTaskSteps:
		return "task-steps"
	case EngineTaskIter:
		return "task-iter"
	case EngineTaskCombined:
		return "task-combined"
	case EngineDataflow:
		return "dataflow"
	case EngineAuto:
		return "auto"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Mode selects real numerics or cost-only simulation.
type Mode int

const (
	// ModeReal transforms actual wavefunction data (used by the
	// correctness tests and ExampleRun; keep the grid small).
	ModeReal Mode = iota
	// ModeCost charges instruction counts and communication volumes
	// without allocating band data (used at the paper's problem size).
	ModeCost
)

// Config describes one FFT-phase run.
type Config struct {
	// Ecut is the plane-wave energy cutoff in Ry (paper: 80).
	Ecut float64
	// Alat is the lattice parameter in bohr (paper: 20).
	Alat float64
	// NB is the number of bands (paper: 128).
	NB int
	// Ranks is R: the ranks inside one task group (the positions a band's
	// FFT is distributed over). For EngineTaskIter it is the number of MPI
	// ranks.
	Ranks int
	// NTG is T: the number of FFT task groups (paper: 8). EngineOriginal
	// and EngineTaskSteps spawn Ranks·NTG MPI processes; EngineTaskIter
	// replaces the groups with NTG worker threads per rank.
	NTG int
	// StepWorkers is the per-rank worker-thread count of EngineTaskSteps
	// (0 means 2). The other engines ignore it.
	StepWorkers int
	// NestedLoops makes EngineTaskSteps split the XY-FFT and Z-FFT compute
	// steps into nested task loops executed by all of the rank's workers,
	// as the paper's Figure 4 version does for cft_2xy and cft_1z.
	NestedLoops bool
	// NestedGrainXY and NestedGrainZ are the nested task-loop grain sizes
	// (planes per task, sticks per task). Zero means the paper's values,
	// 10 and 200.
	NestedGrainXY int
	NestedGrainZ  int
	// Gamma enables gamma-point mode: only the Hermitian half of the
	// G-sphere is stored and two bands are transformed per FFT (Quantum
	// ESPRESSO's gamma_only). NB must be even. Supported by
	// EngineOriginal, EngineTaskIter and EngineDataflow.
	Gamma bool
	// UnitPotential replaces V(r) by 1, making the whole kernel the
	// identity operator — the strongest end-to-end invariant the tests
	// exercise (ModeReal only).
	UnitPotential bool
	// Engine selects the execution strategy.
	Engine Engine
	// Mode selects real numerics or cost-only accounting.
	Mode Mode
	// Params is the KNL node model; zero value means knl.DefaultParams.
	Params *knl.Params
	// Seed offsets the deterministic per-phase work-variance draws, so
	// repeated runs of one configuration (the miniapp's iterations) see
	// different execution noise while staying fully reproducible.
	Seed int
	// Strict enables the runtime invariant checks of the mpi and ompss
	// layers (cross-rank collective shape validation, concurrent same-tag
	// detection, dependency-cycle checks). Violations surface as structured
	// errors from the run instead of silent mismatches or hangs.
	Strict bool
}

func (c Config) withDefaults() Config {
	if c.Params == nil {
		p := knl.DefaultParams()
		c.Params = &p
	}
	if c.StepWorkers <= 0 {
		c.StepWorkers = defaultStepWorkers
	}
	if c.NestedGrainXY <= 0 {
		c.NestedGrainXY = 10
	}
	if c.NestedGrainZ <= 0 {
		c.NestedGrainZ = 200
	}
	return c
}

// Lanes returns the hardware-lane count the configuration occupies.
func (c Config) Lanes() int {
	pol, ok := policyOf(c.Engine)
	if !ok {
		return c.Ranks * c.NTG
	}
	ranks, perRank := pol.layout(c)
	return ranks * perRank
}

func (c Config) validate() error {
	if c.Ecut <= 0 || c.Alat <= 0 {
		return fmt.Errorf("fftx: invalid ecut=%g alat=%g", c.Ecut, c.Alat)
	}
	if c.NB <= 0 || c.Ranks <= 0 || c.NTG <= 0 {
		return fmt.Errorf("fftx: invalid NB=%d Ranks=%d NTG=%d", c.NB, c.Ranks, c.NTG)
	}
	if c.NB%c.NTG != 0 {
		return fmt.Errorf("fftx: NB=%d not divisible by NTG=%d", c.NB, c.NTG)
	}
	if c.Gamma {
		if c.NB%2 != 0 || (c.NB/2)%c.NTG != 0 {
			return fmt.Errorf("fftx: gamma mode needs NB even and NB/2 divisible by NTG (NB=%d NTG=%d)", c.NB, c.NTG)
		}
		if c.Engine != EngineOriginal && c.Engine != EngineTaskIter && c.Engine != EngineDataflow {
			return fmt.Errorf("fftx: gamma mode not supported by engine %v", c.Engine)
		}
	}
	if lanes := c.Lanes(); lanes > 4*c.Params.Cores {
		return fmt.Errorf("fftx: %d lanes exceed 4-way hyper-threading on %d cores", lanes, c.Params.Cores)
	}
	return nil
}

// Result is the outcome of one run.
type Result struct {
	Config  Config
	Runtime float64      // virtual seconds of the FFT phase
	Trace   *trace.Trace // full state trace of the run
	// Engine is the engine that actually executed the run — the selected
	// one when Config asked for EngineAuto.
	Engine Engine
	// TaskwaitSec is the virtual time the run's task runtimes spent blocked
	// at Taskwait barriers, summed over ranks — the barrier-stall account
	// the dataflow engine exists to eliminate (it is 0 there by
	// construction; engines without a task runtime also report 0).
	TaskwaitSec float64
	// Bands holds the transformed band coefficients (full sphere ordering)
	// in ModeReal; nil in ModeCost.
	Bands [][]complex128
	// Sphere and Layout expose the problem geometry of the run. They are
	// the shape's shared geometry (graph.GeometryOf), the same pointers in
	// every run of the shape: read-only.
	Sphere *pw.Sphere
	Layout *pw.Layout
}

// kernel couples the runtime-free stage graph (problem geometry, numeric
// bodies, instruction models — package fftx/graph) with this run's
// configuration: the mode, the deterministic work-variance draws and the
// per-phase compute accounting the schedulers charge.
type kernel struct {
	cfg Config
	*graph.Kernel
	// pipe is the stage graph every engine of this run walks.
	pipe *graph.Graph
}

func newKernel(cfg Config) *kernel {
	gk := &graph.Kernel{
		Geometry: graph.GeometryOf(graph.Shape{
			Ecut: cfg.Ecut, Alat: cfg.Alat, Ranks: cfg.Ranks, Gamma: cfg.Gamma,
		}),
		InstrPerFlop: cfg.Params.InstrPerFlop,
		InstrPerByte: cfg.Params.InstrPerByte,
	}
	if cfg.Mode == ModeReal {
		gk.Pot = graph.PotentialOf(gk.Sphere.Grid, cfg.UnitPotential)
	}
	return &kernel{cfg: cfg, Kernel: gk, pipe: gk.Pipeline(cfg.Gamma)}
}

// fixedPhaseInstr is the fixed per-phase bookkeeping cost (loop and call
// overhead, descriptor upkeep). It replicates with the process count, which
// is what keeps the paper's instruction scalability slightly below 100 %.
const fixedPhaseInstr = 4e4

// jitter returns the deterministic work-variance factor of one phase
// instance, in [1-Jitter, 1+Jitter], keyed by (band, position, phase name).
// It models the run-to-run execution-time variance of real compute phases;
// the same (band, position, phase) triple gets the same factor in every
// engine, so instruction totals stay engine-invariant.
func (k *kernel) jitter(band, p int, name string) float64 {
	j := k.cfg.Params.Jitter
	if j == 0 {
		return 1
	}
	// FNV-1a over the identifying triple (plus the run seed, so repeated
	// miniapp iterations see different variance draws).
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(k.cfg.Seed) + 1)
	mix(uint64(band) + 1)
	mix(uint64(p) + 1)
	for i := 0; i < len(name); i++ {
		mix(uint64(name[i]))
	}
	u := float64(h>>11) / float64(1<<53) // uniform in [0,1)
	return 1 + j*(2*u-1)
}

// phase charges one compute phase of one band: the real data transform
// (ModeReal) plus the modeled, jittered instruction count on the calling
// lane's context. It reports whether the phase is done; a phase that
// suspends a callback process is called again when the process next runs,
// and only the call that starts it runs the transform (see mpi.Ctx).
func (k *kernel) phase(ctx *mpi.Ctx, band, p int, name string, class knl.Class, instr float64, work func()) bool {
	if work != nil && k.cfg.Mode == ModeReal && !ctx.Busy() {
		work()
	}
	return ctx.Compute(name, class, instr*k.jitter(band, p, name)+fixedPhaseInstr)
}
