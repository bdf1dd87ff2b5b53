package core

import (
	"fmt"
	"strings"

	"repro/internal/fftx"
	"repro/internal/knl"
	"repro/internal/pop"
	"repro/internal/trace"
)

// Suite bundles the workload parameters of one reproduction campaign.
type Suite struct {
	Ecut float64 // plane-wave cutoff in Ry
	Alat float64 // lattice parameter in bohr
	NB   int     // number of bands
	NTG  int     // task groups (original) / threads per rank (task version)
	// RankList is the R sweep of Figures 2 and 6 (R x NTG lanes each).
	RankList []int
	// FactorRanks is the R sweep of Tables I and II.
	FactorRanks []int
	// Mode selects real numerics or cost-only accounting.
	Mode fftx.Mode
	// Params overrides the node model (nil = knl.DefaultParams).
	Params *knl.Params
	// Strict enables the runtime invariant checks of the mpi and ompss
	// layers on every run of the campaign.
	Strict bool
}

// PaperSuite returns the paper's experiment parameters: plane-wave energy
// cutoff 80 Ry, lattice parameter 20 bohr, 128 bands, 8 task groups,
// configurations 1x8 .. 32x8 (the last two hyper-threaded). Cost mode: the
// full problem would transform ~50 GFLOP per run; real numerics run only in
// the tests, on small grids.
func PaperSuite() Suite {
	return Suite{
		Ecut: 80, Alat: 20, NB: 128, NTG: 8,
		RankList:    []int{1, 2, 4, 8, 16, 32},
		FactorRanks: []int{1, 2, 4, 8, 16},
		Mode:        fftx.ModeCost,
	}
}

// QuickSuite returns a scaled-down campaign for tests and smoke runs.
func QuickSuite() Suite {
	return Suite{
		Ecut: 10, Alat: 10, NB: 16, NTG: 4,
		RankList:    []int{1, 2, 4},
		FactorRanks: []int{1, 2},
		Mode:        fftx.ModeCost,
	}
}

func (s Suite) config(engine fftx.Engine, ranks int) fftx.Config {
	return fftx.Config{
		Ecut: s.Ecut, Alat: s.Alat, NB: s.NB, Ranks: ranks, NTG: s.NTG,
		Engine: engine, Mode: s.Mode, Params: s.Params, Strict: s.Strict,
	}
}

// Point is one measured configuration.
type Point struct {
	Config  string
	Ranks   int
	Runtime float64
}

// RuntimeCurve is the runtime of one engine across the rank sweep.
type RuntimeCurve struct {
	Engine fftx.Engine
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

func (s Suite) sweep(engine fftx.Engine) (RuntimeCurve, error) {
	curve := RuntimeCurve{Engine: engine}
	for _, r := range s.RankList {
		res, err := fftx.Run(s.config(engine, r))
		if err != nil {
			return curve, fmt.Errorf("core: %v %dx%d: %w", engine, r, s.NTG, err)
		}
		curve.Points = append(curve.Points, Point{
			Config: fmt.Sprintf("%d x %d", r, s.NTG), Ranks: r, Runtime: res.Runtime,
		})
	}
	return curve, nil
}

// Fig2Result is the runtime-vs-ranks curve of the original version
// (paper Figure 2).
type Fig2Result struct {
	Curve RuntimeCurve
}

// Fig2 reproduces Figure 2: the FFT-phase runtime of the original version
// with increasing MPI ranks; the configurations beyond one rank per core
// use hyper-threading.
func (s Suite) Fig2() (*Fig2Result, error) {
	curve, err := s.sweep(fftx.EngineOriginal)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Curve: curve}, nil
}

// Format renders the Figure 2 curve with a bar plot.
func (r *Fig2Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 2 — FFT phase runtime, original version (ranks x task groups)\n")
	formatCurve(&sb, r.Curve)
	sb.WriteString("paper: poor scaling beyond a few ranks; hyper-threaded configurations do not improve the runtime\n")
	return sb.String()
}

func formatCurve(sb *strings.Builder, c RuntimeCurve) {
	var max float64
	for _, p := range c.Points {
		if p.Runtime > max {
			max = p.Runtime
		}
	}
	for _, p := range c.Points {
		bar := int(40 * p.Runtime / max)
		fmt.Fprintf(sb, "%8s %9.4fs |%s\n", p.Config, p.Runtime, strings.Repeat("#", bar))
	}
}

// FactorsResult is a measured POP-factor table with its published
// counterpart (Tables I and II).
type FactorsResult struct {
	Title   string
	Configs []string
	Factors []pop.Factors
	Paper   PaperFactors
	// Results holds the full run results, for deeper inspection.
	Results []*fftx.Result
}

func (s Suite) factorTable(title string, engine fftx.Engine, paper PaperFactors) (*FactorsResult, error) {
	out := &FactorsResult{Title: title, Paper: paper}
	var ref pop.Factors
	for i, r := range s.FactorRanks {
		res, err := fftx.Run(s.config(engine, r))
		if err != nil {
			return nil, fmt.Errorf("core: %s %dx%d: %w", title, r, s.NTG, err)
		}
		f := pop.Analyze(res.Trace)
		if i == 0 {
			ref = f
		}
		f.AddScalability(ref)
		out.Configs = append(out.Configs, fmt.Sprintf("%d x %d", r, s.NTG))
		out.Factors = append(out.Factors, f)
		out.Results = append(out.Results, res)
	}
	return out, nil
}

// Table1 reproduces Table I: efficiency and scalability factors of the
// original version across the rank sweep.
func (s Suite) Table1() (*FactorsResult, error) {
	return s.factorTable("Table I (original version)", fftx.EngineOriginal, PaperTable1)
}

// Table2 reproduces Table II: the factors of the OmpSs per-iteration task
// version.
func (s Suite) Table2() (*FactorsResult, error) {
	return s.factorTable("Table II (task version)", fftx.EngineTaskIter, PaperTable2)
}

// Format renders the measured factors next to the published ones.
func (r *FactorsResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — measured\n%s\n", r.Title, pop.FormatTable(r.Configs, r.Factors))
	fmt.Fprintf(&sb, "%s — paper\n", r.Title)
	fmt.Fprintf(&sb, "%-28s", "")
	n := len(r.Configs)
	for i := 0; i < n && i < len(r.Paper.Configs); i++ {
		fmt.Fprintf(&sb, "%10s", r.Paper.Configs[i])
	}
	sb.WriteString("\n")
	rows := []struct {
		label string
		vals  []float64
	}{
		{"Parallel efficiency", r.Paper.ParallelEff},
		{"-> Load Balance", r.Paper.LoadBalance},
		{"-> Communication Efficiency", r.Paper.CommEff},
		{"-> Synchronization", r.Paper.SyncEff},
		{"-> Transfer", r.Paper.TransferEff},
		{"Computation Scalability", r.Paper.CompScal},
		{"-> IPC Scalability", r.Paper.IPCScal},
		{"-> Instructions Scalability", r.Paper.InstrScal},
		{"Global Efficiency", r.Paper.GlobalEff},
	}
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-28s", row.label)
		for i := 0; i < n && i < len(row.vals); i++ {
			fmt.Fprintf(&sb, "%9.2f%%", row.vals[i])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig3Result is the phase-level view of one original-version run: the
// Paraver-style timeline and the per-phase IPC statistics of Figure 3.
type Fig3Result struct {
	Result    *fftx.Result
	PrepIPC   float64
	ZIPC      float64
	XYIPC     float64
	Timeline  string
	Phases    string
	CommStats string
}

// Fig3 reproduces Figure 3: the timeline of the original version's FFT
// phase at the largest non-hyper-threaded configuration, and the phase IPCs
// (paper: psi preparation ~0.06, Z FFT ~0.52, main XY phase ~0.77).
func (s Suite) Fig3() (*Fig3Result, error) {
	ranks := s.FactorRanks[len(s.FactorRanks)-1]
	for _, r := range s.FactorRanks {
		if r*s.NTG <= 68 && r > 0 {
			ranks = r // largest config without hyper-threading
		}
	}
	res, err := fftx.Run(s.config(fftx.EngineOriginal, ranks))
	if err != nil {
		return nil, err
	}
	return &Fig3Result{
		Result:    res,
		PrepIPC:   res.Trace.PhaseAvgIPC("prep"),
		ZIPC:      res.Trace.PhaseAvgIPC("fft-z"),
		XYIPC:     res.Trace.PhaseAvgIPC("fft-xy", "vofr"),
		Timeline:  res.Trace.Timeline(100, int(knl.ClassVector)),
		Phases:    res.Trace.FormatPhaseBreakdown(),
		CommStats: res.Trace.FormatCommStats(),
	}, nil
}

// Format renders the Figure 3 reproduction.
func (r *Fig3Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 3 — timeline and phase IPCs, original version\n")
	sb.WriteString(r.Timeline)
	sb.WriteString("\nphase statistics:\n")
	sb.WriteString(r.Phases)
	sb.WriteString("\ncommunicator usage (the two MPI layers):\n")
	sb.WriteString(r.CommStats)
	fmt.Fprintf(&sb, "\nphase IPCs measured (paper): prep %.3f (%.2f), fft-z %.3f (%.2f), xy/vofr %.3f (%.2f)\n",
		r.PrepIPC, PaperPhasePrepIPC, r.ZIPC, PaperPhaseZIPC, r.XYIPC, PaperPhaseXYIPC)
	return sb.String()
}

// Fig6Result compares the runtime curves of the original and task versions
// (paper Figure 6).
type Fig6Result struct {
	Original RuntimeCurve
	Task     RuntimeCurve
}

// Fig6 reproduces Figure 6: runtime of the original version (N x NTG MPI
// ranks) versus the task version (N ranks with NTG threads) across the rank
// sweep.
func (s Suite) Fig6() (*Fig6Result, error) {
	orig, err := s.sweep(fftx.EngineOriginal)
	if err != nil {
		return nil, err
	}
	task, err := s.sweep(fftx.EngineTaskIter)
	if err != nil {
		return nil, err
	}
	return &Fig6Result{Original: orig, Task: task}, nil
}

// BestGain returns the relative runtime reduction of the task version's
// fastest configuration over the original's fastest (the paper's ~10 %
// headline).
func (r *Fig6Result) BestGain() float64 {
	bo, bt := r.Original.Best(), r.Task.Best()
	return (bo.Runtime - bt.Runtime) / bo.Runtime
}

// Format renders the Figure 6 comparison.
func (r *Fig6Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 6 — FFT phase runtime: original vs task version\n")
	fmt.Fprintf(&sb, "%8s %12s %12s %8s\n", "config", "original[s]", "task[s]", "gain")
	for i := range r.Original.Points {
		o, t := r.Original.Points[i], r.Task.Points[i]
		fmt.Fprintf(&sb, "%8s %12.4f %12.4f %+7.1f%%\n",
			o.Config, o.Runtime, t.Runtime, 100*(o.Runtime-t.Runtime)/o.Runtime)
	}
	bo, bt := r.Original.Best(), r.Task.Best()
	fmt.Fprintf(&sb, "best original: %s (%.4fs), best task: %s (%.4fs), best-vs-best gain %.1f%% (paper: ~10%%, per-config 7-10%%)\n",
		bo.Config, bo.Runtime, bt.Config, bt.Runtime, 100*r.BestGain())
	return sb.String()
}

// Fig7Result compares the execution behaviour of the two versions at one
// configuration: timelines, IPC histograms and the main-phase IPC shift.
type Fig7Result struct {
	Original *fftx.Result
	Task     *fftx.Result
	XYOrig   float64
	XYTask   float64
}

// Fig7 reproduces Figure 7: the de-synchronization of compute phases. It
// runs both versions at the largest non-hyper-threaded configuration.
func (s Suite) Fig7() (*Fig7Result, error) {
	ranks := s.FactorRanks[0]
	for _, r := range s.FactorRanks {
		if r*s.NTG <= 68 {
			ranks = r
		}
	}
	orig, err := fftx.Run(s.config(fftx.EngineOriginal, ranks))
	if err != nil {
		return nil, err
	}
	task, err := fftx.Run(s.config(fftx.EngineTaskIter, ranks))
	if err != nil {
		return nil, err
	}
	return &Fig7Result{
		Original: orig, Task: task,
		XYOrig: orig.Trace.PhaseAvgIPC("fft-xy", "vofr"),
		XYTask: task.Trace.PhaseAvgIPC("fft-xy", "vofr"),
	}, nil
}

// Format renders the Figure 7 reproduction.
func (r *Fig7Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 7 — de-synchronization of compute phases (original top, task version bottom)\n\n")
	sb.WriteString("original timeline:\n")
	sb.WriteString(r.Original.Trace.Timeline(100, int(knl.ClassVector)))
	sb.WriteString("\ntask version timeline:\n")
	sb.WriteString(r.Task.Trace.Timeline(100, int(knl.ClassVector)))
	sb.WriteString("\noriginal IPC histogram:\n")
	sb.WriteString(r.Original.Trace.RenderIPCHistogram(40, 1.6))
	sb.WriteString("\ntask version IPC histogram:\n")
	sb.WriteString(r.Task.Trace.RenderIPCHistogram(40, 1.6))
	fmt.Fprintf(&sb, "\nmain-phase IPC: original %.3f -> task %.3f (paper: ~%.2f -> ~%.2f)\n",
		r.XYOrig, r.XYTask, PaperXYIPCOriginal, PaperXYIPCTask)
	return sb.String()
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

// SweepNTG runs the original version with a fixed total process count,
// sweeping the number of task groups over the divisors of the total. It
// exposes the pack-vs-scatter cost trade-off the task groups exist to tune.
func (s Suite) SweepNTG(total int) (*SweepResult, error) {
	out := &SweepResult{TotalRanks: total}
	for ntg := 1; ntg <= total; ntg++ {
		if total%ntg != 0 || s.NB%ntg != 0 {
			continue
		}
		cfg := s.config(fftx.EngineOriginal, total/ntg)
		cfg.NTG = ntg
		res, err := fftx.Run(cfg)
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

// Format renders the task-group sweep.
func (r *SweepResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Task-group sweep at %d total MPI processes (Section II trade-off)\n", r.TotalRanks)
	fmt.Fprintf(&sb, "%6s %12s %16s %16s\n", "NTG", "runtime[s]", "pack MPI [s]", "scatter MPI [s]")
	for i, ntg := range r.NTGs {
		fmt.Fprintf(&sb, "%6d %12.4f %16.4f %16.4f\n", ntg, r.Runtimes[i], r.PackTime[i], r.ScatterT[i])
	}
	sb.WriteString("paper: NTG=1 shifts all cost to the scatter, NTG=P to the pack/unpack; the optimum lies between\n")
	return sb.String()
}

// AblationResult compares the three engines and node-model ablations at one
// configuration.
type AblationResult struct {
	Config string
	Rows   []AblationRow
}

// AblationRow is one ablation entry.
type AblationRow struct {
	Name    string
	Runtime float64
	XYIPC   float64
}

// Ablation quantifies the design choices at the given rank count: the three
// engines (static, per-step tasks, per-iteration tasks), the per-step
// engine's worker count, and the node-model ingredients (work variance,
// endpoint serialization) that the de-synchronization effect rests on.
func (s Suite) Ablation(ranks int) (*AblationResult, error) {
	out := &AblationResult{Config: fmt.Sprintf("%d x %d", ranks, s.NTG)}
	add := func(name string, cfg fftx.Config) error {
		res, err := fftx.Run(cfg)
		if err != nil {
			return fmt.Errorf("core: ablation %s: %w", name, err)
		}
		out.Rows = append(out.Rows, AblationRow{
			Name: name, Runtime: res.Runtime,
			XYIPC: res.Trace.PhaseAvgIPC("fft-xy", "vofr"),
		})
		return nil
	}
	if err := add("original (static task groups)", s.config(fftx.EngineOriginal, ranks)); err != nil {
		return nil, err
	}
	for _, w := range []int{1, 2} {
		cfg := s.config(fftx.EngineTaskSteps, ranks)
		cfg.StepWorkers = w
		if cfg.Lanes() > 272 {
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
	if err := add("task-iter (per-band tasks)", s.config(fftx.EngineTaskIter, ranks)); err != nil {
		return nil, err
	}
	if err := add("task-combined (async comm, future work)", s.config(fftx.EngineTaskCombined, ranks)); err != nil {
		return nil, err
	}
	if err := add("dataflow (no taskwait, bounded lookahead)", s.config(fftx.EngineDataflow, ranks)); err != nil {
		return nil, err
	}
	if s.NB%2 == 0 && (s.NB/2)%s.NTG == 0 {
		cfg := s.config(fftx.EngineTaskIter, ranks)
		cfg.Gamma = true
		if err := add("task-iter, gamma-point mode (2 bands/FFT)", cfg); err != nil {
			return nil, err
		}
	}
	// Node-model ablations on the task engine.
	pNoJit := knl.DefaultParams()
	if s.Params != nil {
		pNoJit = *s.Params
	}
	pNoJit.Jitter = 0
	cfg := s.config(fftx.EngineTaskIter, ranks)
	cfg.Params = &pNoJit
	if err := add("task-iter, no work variance", cfg); err != nil {
		return nil, err
	}
	pNoEp := knl.DefaultParams()
	if s.Params != nil {
		pNoEp = *s.Params
	}
	pNoEp.EndpointBandwidth = 0
	cfg = s.config(fftx.EngineTaskIter, ranks)
	cfg.Params = &pNoEp
	if err := add("task-iter, no endpoint serialization cap", cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the ablation table.
func (r *AblationResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation at %s\n", r.Config)
	fmt.Fprintf(&sb, "%-42s %12s %10s\n", "variant", "runtime[s]", "xy IPC")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-42s %12.4f %10.3f\n", row.Name, row.Runtime, row.XYIPC)
	}
	return sb.String()
}
