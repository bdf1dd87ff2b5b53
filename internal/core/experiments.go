package core

import (
	"fmt"
	"strings"

	"repro/internal/fftx"
	"repro/internal/knl"
	"repro/internal/pop"
	"repro/internal/trace"
)

// Suite bundles the workload parameters of one reproduction campaign and
// the table of the runs it has simulated. Every experiment is a view over
// that table: a configuration two experiments share is simulated once.
type Suite struct {
	Ecut float64 // plane-wave cutoff in Ry
	Alat float64 // lattice parameter in bohr
	NB   int     // number of bands
	NTG  int     // task groups (original) / threads per rank (task version)
	// RankList is the R sweep of Figures 2 and 6 (R x NTG lanes each).
	RankList []int
	// FactorRanks is the R sweep of Tables I and II.
	FactorRanks []int
	// Strict enables the runtime invariant checks of the mpi and ompss
	// layers on every run of the campaign.
	Strict bool

	runs map[runKey]*fftx.Result
}

// PaperSuite returns the paper's experiment parameters: plane-wave energy
// cutoff 80 Ry, lattice parameter 20 bohr, 128 bands, 8 task groups,
// configurations 1x8 .. 32x8 (the last two hyper-threaded). Every run is in
// cost mode: the full problem would transform ~50 GFLOP per run; real
// numerics run only in the fftx tests, on small grids.
func PaperSuite() *Suite {
	return &Suite{
		Ecut: 80, Alat: 20, NB: 128, NTG: 8,
		RankList:    []int{1, 2, 4, 8, 16, 32},
		FactorRanks: []int{1, 2, 4, 8, 16},
	}
}

// QuickSuite returns a scaled-down campaign for tests and smoke runs.
func QuickSuite() *Suite {
	return &Suite{
		Ecut: 10, Alat: 10, NB: 16, NTG: 4,
		RankList:    []int{1, 2, 4},
		FactorRanks: []int{1, 2},
	}
}

func (s *Suite) config(engine fftx.Engine, ranks int) fftx.Config {
	return fftx.Config{
		Ecut: s.Ecut, Alat: s.Alat, NB: s.NB, Ranks: ranks, NTG: s.NTG,
		Engine: engine, Mode: fftx.ModeCost, Strict: s.Strict,
	}
}

// runKey is a run configuration in canonical form. The node model is held
// by value, so a nil Params and a pointer to knl.DefaultParams are one key.
// StepWorkers reaches a run only through the lane layout, so the key holds
// the lanes per process instead: an explicit two workers and the default
// are one run.
type runKey struct {
	cfg    fftx.Config
	params knl.Params
}

// run is the suite's only way to simulate: it returns the memoised result
// of cfg, running it on first request. A failed run is not kept: the only
// one the experiments expect, a configuration over the lane limit, fails
// validation before it simulates anything.
func (s *Suite) run(cfg fftx.Config) (*fftx.Result, error) {
	key := runKey{cfg: cfg, params: knl.DefaultParams()}
	if cfg.Params != nil {
		key.params = *cfg.Params
	}
	key.cfg.Params = nil
	key.cfg.StepWorkers = cfg.Lanes() / (cfg.Ranks * cfg.NTG)
	if res, ok := s.runs[key]; ok {
		return res, nil
	}
	res, err := fftx.Run(cfg)
	if err != nil {
		return nil, err
	}
	if s.runs == nil {
		s.runs = map[runKey]*fftx.Result{}
	}
	s.runs[key] = res
	return res, nil
}

// htWays is the KNL's hardware threads per core: a run may occupy at most
// htWays lanes per core, the limit fftx.Config enforces.
const htWays = 4

// noHTRanks returns the largest rank count of FactorRanks whose R x NTG
// lanes fit on the node's cores without hyper-threading: the 8 x 8 point of
// Figures 3 and 7, where the ablation, sensitivity and band studies run.
func (s *Suite) noHTRanks() int {
	cores := knl.DefaultParams().Cores
	ranks := s.FactorRanks[0]
	for _, r := range s.FactorRanks {
		if r*s.NTG <= cores {
			ranks = r
		}
	}
	return ranks
}

// configName labels an R x NTG configuration as the paper does.
func (s *Suite) configName(ranks int) string {
	return fmt.Sprintf("%d x %d", ranks, s.NTG)
}

// Point is one measured R x NTG configuration.
type Point struct {
	Ranks   int
	Runtime float64
}

// RuntimeCurve is the runtime of one engine across the rank sweep.
type RuntimeCurve struct {
	Points []Point
}

// Best returns the fastest point of the curve.
func (c RuntimeCurve) Best() Point {
	best := c.Points[0]
	for _, p := range c.Points[1:] {
		if p.Runtime < best.Runtime {
			best = p
		}
	}
	return best
}

func (s *Suite) sweep(engine fftx.Engine) (RuntimeCurve, error) {
	var curve RuntimeCurve
	for _, r := range s.RankList {
		res, err := s.run(s.config(engine, r))
		if err != nil {
			return curve, fmt.Errorf("core: %v %s: %w", engine, s.configName(r), err)
		}
		curve.Points = append(curve.Points, Point{Ranks: r, Runtime: res.Runtime})
	}
	return curve, nil
}

// Fig2 reproduces Figure 2: the FFT-phase runtime of the original version
// with increasing MPI ranks; the configurations beyond one rank per core
// use hyper-threading. It is Figure 6's original curve.
func (s *Suite) Fig2() (RuntimeCurve, error) {
	return s.sweep(fftx.EngineOriginal)
}

// FactorsResult is a measured POP-factor table with its published
// counterpart (Tables I and II).
type FactorsResult struct {
	Configs []string
	Factors []pop.Factors
	Paper   PaperFactors
}

func (s *Suite) factorTable(engine fftx.Engine, paper PaperFactors) (*FactorsResult, error) {
	out := &FactorsResult{Paper: paper}
	var ref pop.Factors
	for i, r := range s.FactorRanks {
		res, err := s.run(s.config(engine, r))
		if err != nil {
			return nil, fmt.Errorf("core: %v factors %s: %w", engine, s.configName(r), err)
		}
		f := pop.Analyze(res.Trace)
		if i == 0 {
			ref = f
		}
		f.AddScalability(ref)
		out.Configs = append(out.Configs, s.configName(r))
		out.Factors = append(out.Factors, f)
	}
	return out, nil
}

// Table1 reproduces Table I: efficiency and scalability factors of the
// original version across the rank sweep.
func (s *Suite) Table1() (*FactorsResult, error) {
	return s.factorTable(fftx.EngineOriginal, PaperTable1)
}

// Table2 reproduces Table II: the factors of the OmpSs per-iteration task
// version.
func (s *Suite) Table2() (*FactorsResult, error) {
	return s.factorTable(fftx.EngineTaskIter, PaperTable2)
}

// Fig3Result is the phase-level view of one original-version run: the
// Paraver-style timeline and the per-phase IPC statistics of Figure 3.
type Fig3Result struct {
	Result  *fftx.Result
	PrepIPC float64
	ZIPC    float64
	XYIPC   float64
}

// Fig3 reproduces Figure 3: the timeline of the original version's FFT
// phase at the largest non-hyper-threaded configuration, and the phase IPCs
// (paper: psi preparation ~0.06, Z FFT ~0.52, main XY phase ~0.77).
func (s *Suite) Fig3() (*Fig3Result, error) {
	res, err := s.run(s.config(fftx.EngineOriginal, s.noHTRanks()))
	if err != nil {
		return nil, err
	}
	return &Fig3Result{
		Result:  res,
		PrepIPC: res.Trace.PhaseAvgIPC("prep"),
		ZIPC:    res.Trace.PhaseAvgIPC("fft-z"),
		XYIPC:   mainPhaseIPC(res),
	}, nil
}

// mainPhaseIPC is the average IPC of the central XY-FFT/VOFR block, the
// quantity Figure 7 shows shifting under de-synchronization.
func mainPhaseIPC(res *fftx.Result) float64 {
	return res.Trace.PhaseAvgIPC("fft-xy", "vofr")
}

// Fig6 reproduces Figure 6: runtime of the original version (N x NTG MPI
// ranks) against the task version (N ranks with NTG threads) across the
// rank sweep.
func (s *Suite) Fig6() (orig, task RuntimeCurve, err error) {
	if orig, err = s.sweep(fftx.EngineOriginal); err != nil {
		return orig, task, err
	}
	task, err = s.sweep(fftx.EngineTaskIter)
	return orig, task, err
}

// pair runs the original and the task version at the largest
// non-hyper-threaded configuration, both changed by mod: Figure 7, and each
// row of the sensitivity study and the band sweep.
func (s *Suite) pair(mod func(*fftx.Config)) (orig, task *fftx.Result, err error) {
	cfg := s.config(fftx.EngineOriginal, s.noHTRanks())
	mod(&cfg)
	if orig, err = s.run(cfg); err != nil {
		return nil, nil, err
	}
	cfg.Engine = fftx.EngineTaskIter
	task, err = s.run(cfg)
	return orig, task, err
}

// gain is the task version's relative runtime reduction over the original.
func gain(orig, task float64) float64 { return (orig - task) / orig }

// Fig7 reproduces Figure 7, the de-synchronization of compute phases: both
// versions at the largest non-hyper-threaded configuration, whose
// timelines, IPC histograms and main-phase IPCs the section compares.
func (s *Suite) Fig7() (orig, task *fftx.Result, err error) {
	return s.pair(func(*fftx.Config) {})
}

// SweepResult is the task-group sweep of Section II: fixed total MPI
// processes, varying the number of task groups between the two extremes.
type SweepResult struct {
	TotalRanks int
	NTGs       []int
	Runtimes   []float64
	PackTime   []float64
	ScatterT   []float64
}

// SweepNTG runs the original version at 2·NTG total processes (the paper's
// 16), sweeping the number of task groups over the divisors of the total.
// It exposes the pack-vs-scatter cost trade-off the task groups exist to
// tune.
func (s *Suite) SweepNTG() (*SweepResult, error) {
	total := 2 * s.NTG
	out := &SweepResult{TotalRanks: total}
	for ntg := 1; ntg <= total; ntg++ {
		if total%ntg != 0 || s.NB%ntg != 0 {
			continue
		}
		cfg := s.config(fftx.EngineOriginal, total/ntg)
		cfg.NTG = ntg
		res, err := s.run(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: sweep ntg=%d: %w", ntg, err)
		}
		var packT, scatT float64
		for _, iv := range res.Trace.Intervals {
			if iv.Kind != trace.KindMPISync && iv.Kind != trace.KindMPITransfer {
				continue
			}
			if strings.HasPrefix(iv.Comm, "pack") {
				packT += iv.Duration()
			}
			if strings.HasPrefix(iv.Comm, "grp") {
				scatT += iv.Duration()
			}
		}
		out.NTGs = append(out.NTGs, ntg)
		out.Runtimes = append(out.Runtimes, res.Runtime)
		out.PackTime = append(out.PackTime, packT)
		out.ScatterT = append(out.ScatterT, scatT)
	}
	return out, nil
}

// AblationResult compares the engines and node-model ablations at one
// configuration.
type AblationResult struct {
	Ranks int
	Rows  []AblationRow
}

// AblationRow is one ablation entry.
type AblationRow struct {
	Name    string
	Runtime float64
	XYIPC   float64
}

// Row returns the entry with the given name; ok is false when the
// configuration could not run it.
func (r *AblationResult) Row(name string) (row AblationRow, ok bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, true
		}
	}
	return AblationRow{}, false
}

// Ablation row names the report's prose refers to.
const (
	ablOriginal = "original (static task groups)"
	ablSteps1   = "task-steps (1 workers/rank)"
	ablTaskIter = "task-iter (per-band tasks)"
	ablCombined = "task-combined (async comm, future work)"
	ablGamma    = "task-iter, gamma-point mode (2 bands/FFT)"
)

// Ablation quantifies the design choices at the largest non-hyper-threaded
// configuration: the engines (static, per-step tasks, per-iteration tasks,
// asynchronous communication, dataflow), the per-step engine's worker
// count, and the node-model ingredients (work variance, endpoint
// serialization) that the de-synchronization effect rests on.
func (s *Suite) Ablation() (*AblationResult, error) {
	ranks := s.noHTRanks()
	out := &AblationResult{Ranks: ranks}
	add := func(name string, cfg fftx.Config) error {
		res, err := s.run(cfg)
		if err != nil {
			return fmt.Errorf("core: ablation %s: %w", name, err)
		}
		out.Rows = append(out.Rows, AblationRow{Name: name, Runtime: res.Runtime, XYIPC: mainPhaseIPC(res)})
		return nil
	}
	if err := add(ablOriginal, s.config(fftx.EngineOriginal, ranks)); err != nil {
		return nil, err
	}
	for _, w := range []int{1, 2} {
		cfg := s.config(fftx.EngineTaskSteps, ranks)
		cfg.StepWorkers = w
		if cfg.Lanes() > htWays*knl.DefaultParams().Cores {
			continue
		}
		if err := add(fmt.Sprintf("task-steps (%d workers/rank)", w), cfg); err != nil {
			return nil, err
		}
		cfg.NestedLoops = true
		if err := add(fmt.Sprintf("task-steps (%d workers/rank, nested loops)", w), cfg); err != nil {
			return nil, err
		}
	}
	if err := add(ablTaskIter, s.config(fftx.EngineTaskIter, ranks)); err != nil {
		return nil, err
	}
	if err := add(ablCombined, s.config(fftx.EngineTaskCombined, ranks)); err != nil {
		return nil, err
	}
	if err := add("dataflow (no taskwait, bounded lookahead)", s.config(fftx.EngineDataflow, ranks)); err != nil {
		return nil, err
	}
	if s.NB%2 == 0 && (s.NB/2)%s.NTG == 0 {
		cfg := s.config(fftx.EngineTaskIter, ranks)
		cfg.Gamma = true
		if err := add(ablGamma, cfg); err != nil {
			return nil, err
		}
	}
	// Node-model ablations on the task engine.
	pNoJit := knl.DefaultParams()
	pNoJit.Jitter = 0
	cfg := s.config(fftx.EngineTaskIter, ranks)
	cfg.Params = &pNoJit
	if err := add("task-iter, no work variance", cfg); err != nil {
		return nil, err
	}
	pNoEp := knl.DefaultParams()
	pNoEp.EndpointBandwidth = 0
	cfg = s.config(fftx.EngineTaskIter, ranks)
	cfg.Params = &pNoEp
	if err := add("task-iter, no endpoint serialization cap", cfg); err != nil {
		return nil, err
	}
	return out, nil
}
