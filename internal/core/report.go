package core

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/knl"
	"repro/internal/pop"
)

// section is one part of the report: the name fftxbench accepts for it and
// the writer that runs its views and renders them as markdown.
type section struct {
	name  string
	write func(*Suite, *strings.Builder) error
}

var sections = []section{
	{"fig2", (*Suite).writeFig2},
	{"table1", (*Suite).writeTable1},
	{"fig3", (*Suite).writeFig3},
	{"table2", (*Suite).writeTable2},
	{"fig6", (*Suite).writeFig6},
	{"fig7", (*Suite).writeFig7},
	{"sweep", (*Suite).writeSweep},
	{"ablation", (*Suite).writeAblation},
	{"sensitivity", (*Suite).writeSensitivity},
	{"bandsweep", (*Suite).writeBandSweep},
	{"engines", (*Suite).writeEngines},
}

// Sections returns the report's section names in report order.
func Sections() []string {
	names := make([]string, len(sections))
	for i, sec := range sections {
		names[i] = sec.name
	}
	return names
}

// WriteSection writes one section of the report as markdown.
func (s *Suite) WriteSection(w io.Writer, name string) error {
	for _, sec := range sections {
		if sec.name == name {
			var b strings.Builder
			if err := sec.write(s, &b); err != nil {
				return err
			}
			_, err := io.WriteString(w, b.String())
			return err
		}
	}
	return fmt.Errorf("core: unknown section %q", name)
}

// WriteReport writes every section under a header: the generated
// EXPERIMENTS.md.
func (s *Suite) WriteReport(w io.Writer) error {
	p := knl.DefaultParams()
	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Fprintf(&b, "This file is generated by `go run ./cmd/fftxbench report > EXPERIMENTS.md` "+
		"(`make experiments`), and `TestExperimentsMatchReport` fails when the two differ. "+
		"`fftxbench <section>` prints one section: %s.\n\n", strings.Join(Sections(), ", "))
	fmt.Fprintf(&b, "Workload: energy cutoff %.0f Ry, lattice parameter %.0f bohr, %d bands, %d task groups, "+
		"on the simulated KNL node (%d cores at %.1f GHz, up to %d-way hyper-threading). "+
		"Runtimes are simulated seconds (sim-s) of the FFT phase. The paper reports no absolute runtimes, "+
		"so the comparison is about shape: who wins, by how much, and where the crossovers sit. "+
		"The calibration anchors are documented in `internal/knl/params.go`.\n",
		s.Ecut, s.Alat, s.NB, s.NTG, p.Cores, p.Freq/1e9, htWays)
	for _, sec := range sections {
		b.WriteString("\n")
		if err := sec.write(s, &b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// head starts a markdown table with the given column titles.
func head(b *strings.Builder, cols ...string) {
	b.WriteString("|")
	for _, c := range cols {
		fmt.Fprintf(b, " %s |", c)
	}
	b.WriteString("\n|")
	for range cols {
		b.WriteString("---|")
	}
	b.WriteString("\n")
}

// fenced writes pre-rendered text (a timeline, a histogram) as a code block.
func fenced(b *strings.Builder, text string) {
	fmt.Fprintf(b, "```text\n%s\n```\n", strings.TrimRight(text, "\n"))
}

func (s *Suite) writeFig2(b *strings.Builder) error {
	c, err := s.Fig2()
	if err != nil {
		return err
	}
	cores := knl.DefaultParams().Cores
	first, best := c.Points[0], c.Best()
	b.WriteString("## Figure 2 — runtime of the FFT phase, original version\n\n")
	head(b, "config", "hyper-threading", "runtime [sim-s]", "speedup over "+s.configName(first.Ranks))
	for _, p := range c.Points {
		ht := "—"
		if ways := (p.Ranks*s.NTG + cores - 1) / cores; ways > 1 {
			ht = fmt.Sprintf("%d-way", ways)
		}
		fmt.Fprintf(b, "| %s | %s | %.4f | %.2f× |\n", s.configName(p.Ranks), ht, p.Runtime, first.Runtime/p.Runtime)
	}
	fmt.Fprintf(b, "\nPaper: the FFT phase \"does not scale very well with an increasing number of MPI ranks\", "+
		"and under hyper-threading \"in fact the runtime is increased again\". "+
		"Measured: the fastest configuration is %s, %.2f× faster than %s on %d× the ranks.\n",
		s.configName(best.Ranks), first.Runtime/best.Runtime, s.configName(first.Ranks), best.Ranks/first.Ranks)
	return nil
}

// factorRows are the POP factors of Tables I and II, in the paper's order.
var factorRows = []struct {
	label string
	get   func(pop.Factors) float64
	pub   func(PaperFactors) []float64
}{
	{"Parallel efficiency", func(f pop.Factors) float64 { return f.ParallelEff }, func(p PaperFactors) []float64 { return p.ParallelEff }},
	{"→ Load balance", func(f pop.Factors) float64 { return f.LoadBalance }, func(p PaperFactors) []float64 { return p.LoadBalance }},
	{"→ Communication eff.", func(f pop.Factors) float64 { return f.CommEff }, func(p PaperFactors) []float64 { return p.CommEff }},
	{"→ → Synchronization", func(f pop.Factors) float64 { return f.SyncEff }, func(p PaperFactors) []float64 { return p.SyncEff }},
	{"→ → Transfer", func(f pop.Factors) float64 { return f.TransferEff }, func(p PaperFactors) []float64 { return p.TransferEff }},
	{"Computation scal.", func(f pop.Factors) float64 { return f.CompScal }, func(p PaperFactors) []float64 { return p.CompScal }},
	{"→ IPC scal.", func(f pop.Factors) float64 { return f.IPCScal }, func(p PaperFactors) []float64 { return p.IPCScal }},
	{"→ Instruction scal.", func(f pop.Factors) float64 { return f.InstrScal }, func(p PaperFactors) []float64 { return p.InstrScal }},
	{"Global efficiency", func(f pop.Factors) float64 { return f.GlobalEff }, func(p PaperFactors) []float64 { return p.GlobalEff }},
}

// published renders the paper's value for column i in parentheses, or
// nothing where the paper gives none.
func published(vals []float64, i int, format string) string {
	if i >= len(vals) || vals[i] == 0 {
		return ""
	}
	return fmt.Sprintf(" ("+format+")", vals[i])
}

// writeFactors renders a measured POP table with the published values in
// parentheses, followed by Section V's average IPCs and the runtimes.
func writeFactors(b *strings.Builder, r *FactorsResult) {
	b.WriteString("Measured (paper), factors in percent:\n\n")
	head(b, append([]string{"factor"}, r.Configs...)...)
	for _, row := range factorRows {
		fmt.Fprintf(b, "| %s |", row.label)
		for i, f := range r.Factors {
			fmt.Fprintf(b, " %.2f%s |", 100*row.get(f), published(row.pub(r.Paper), i, "%.2f"))
		}
		b.WriteString("\n")
	}
	b.WriteString("| Average IPC |")
	for i, f := range r.Factors {
		fmt.Fprintf(b, " %.2f%s |", f.AvgIPC, published(r.Paper.AvgIPC, i, "%.1f"))
	}
	b.WriteString("\n| Runtime [sim-s] |")
	for _, f := range r.Factors {
		fmt.Fprintf(b, " %.4f |", f.Runtime)
	}
	b.WriteString("\n")
}

func (s *Suite) writeTable1(b *strings.Builder) error {
	t1, err := s.Table1()
	if err != nil {
		return err
	}
	b.WriteString("## Table I — efficiency and scalability factors, original version\n\n")
	writeFactors(b, t1)
	last := len(t1.Factors) - 1
	fmt.Fprintf(b, "\nPaper: two issues limit the FFT phase, communication efficiency decaying with the rank count "+
		"and IPC collapsing under shared-resource contention, while load balance and instruction scalability stay high. "+
		"Measured from %s to %s: communication efficiency %.2f → %.2f %%, IPC scalability %.2f → %.2f %%.\n",
		t1.Configs[0], t1.Configs[last], 100*t1.Factors[0].CommEff, 100*t1.Factors[last].CommEff,
		100*t1.Factors[0].IPCScal, 100*t1.Factors[last].IPCScal)
	return nil
}

func (s *Suite) writeTable2(b *strings.Builder) error {
	t1, err := s.Table1()
	if err != nil {
		return err
	}
	t2, err := s.Table2()
	if err != nil {
		return err
	}
	b.WriteString("## Table II — factors of the OmpSs per-iteration task version\n\n")
	writeFactors(b, t2)
	last := len(t2.Factors) - 1
	o, k := t1.Factors[last], t2.Factors[last]
	fmt.Fprintf(b, "\nPaper: de-synchronizing the compute phases raises IPC scalability at every scale "+
		"and costs parallel efficiency. At %s, task against original, measured (paper): "+
		"IPC scalability %.2f against %.2f %% (%.2f against %.2f), parallel efficiency %.2f against %.2f %% (%.2f against %.2f), "+
		"average IPC %.2f against %.2f (%.1f against %.1f).\n",
		t2.Configs[last],
		100*k.IPCScal, 100*o.IPCScal, PaperTable2.IPCScal[last], PaperTable1.IPCScal[last],
		100*k.ParallelEff, 100*o.ParallelEff, PaperTable2.ParallelEff[last], PaperTable1.ParallelEff[last],
		k.AvgIPC, o.AvgIPC, PaperTable2.AvgIPC[last], PaperTable1.AvgIPC[last])
	return nil
}

func (s *Suite) writeFig3(b *strings.Builder) error {
	r, err := s.Fig3()
	if err != nil {
		return err
	}
	cfg := r.Result.Config
	fmt.Fprintf(b, "## Figure 3 — phase structure of one %s run, original version\n\n", s.configName(cfg.Ranks))
	head(b, "phase", "measured IPC", "paper")
	fmt.Fprintf(b, "| psi preparation (`prep`) | %.3f | ~%.2f |\n", r.PrepIPC, PaperPhasePrepIPC)
	fmt.Fprintf(b, "| Z FFT (`fft-z`) | %.3f | ~%.2f |\n", r.ZIPC, PaperPhaseZIPC)
	fmt.Fprintf(b, "| XY FFT / VOFR (`fft-xy`, `vofr`) | %.3f | ~%.2f |\n", r.XYIPC, PaperPhaseXYIPC)
	fmt.Fprintf(b, "\nThe timeline shows the run's %d band iterations (%d bands over %d task groups) in lock step:\n\n",
		cfg.NB/cfg.NTG, cfg.NB, cfg.NTG)
	fenced(b, r.Result.Trace.Timeline(100, int(knl.ClassVector)))
	b.WriteString("\nPhase statistics, summed over lanes:\n\n")
	fenced(b, r.Result.Trace.FormatPhaseBreakdown())
	fmt.Fprintf(b, "\nThe two MPI layers: %d `pack` communicators of %d neighbouring ranks "+
		"and %d `grp` communicators of %d alternating ranks. "+
		"`fftxbench -save-trace DIR fig3` saves the trace, and `fftxtrace -paraver` exports it for Paraver.\n\n",
		cfg.Ranks, cfg.NTG, cfg.NTG, cfg.Ranks)
	fenced(b, r.Result.Trace.FormatCommStats())
	return nil
}

func (s *Suite) writeFig6(b *strings.Builder) error {
	orig, task, err := s.Fig6()
	if err != nil {
		return err
	}
	b.WriteString("## Figure 6 — runtime of the FFT phase, original vs task version\n\n")
	head(b, "config", "original [sim-s]", "task [sim-s]", "gain")
	for i, o := range orig.Points {
		t := task.Points[i]
		fmt.Fprintf(b, "| %s | %.4f | %.4f | %+.1f%% |\n", s.configName(o.Ranks), o.Runtime, t.Runtime, 100*gain(o.Runtime, t.Runtime))
	}
	bo, bt := orig.Best(), task.Best()
	fmt.Fprintf(b, "\nBest original: %s (%.4f s); best task: %s (%.4f s); best-vs-best gain %.1f%% (paper: ~%.0f%%).\n",
		s.configName(bo.Ranks), bo.Runtime, s.configName(bt.Ranks), bt.Runtime, 100*gain(bo.Runtime, bt.Runtime), 100*PaperGainHigh)
	fmt.Fprintf(b, "\nPaper: the task version is %.0f–%.0f %% faster, and it is the only version that profits from 2-way hyper-threading (about %.0f %%).",
		100*PaperGainLow, 100*PaperGainHigh, 100*PaperHTGainTask)
	for i := 1; i < len(orig.Points); i++ {
		if o0, o1 := orig.Points[i-1], orig.Points[i]; o0.Ranks == s.noHTRanks() {
			t0, t1 := task.Points[i-1], task.Points[i]
			fmt.Fprintf(b, " Measured from %s to %s: the task version gains %+.1f%%, the original %+.1f%%.",
				s.configName(o0.Ranks), s.configName(o1.Ranks), 100*gain(t0.Runtime, t1.Runtime), 100*gain(o0.Runtime, o1.Runtime))
		}
	}
	b.WriteString("\n")
	return nil
}

func (s *Suite) writeFig7(b *strings.Builder) error {
	orig, task, err := s.Fig7()
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "## Figure 7 — de-synchronization of compute phases at %s\n\n", s.configName(orig.Config.Ranks))
	fmt.Fprintf(b, "Main-phase IPC: original %.3f → task %.3f (paper: ~%.2f → ~%.2f).\n\n",
		mainPhaseIPC(orig), mainPhaseIPC(task), PaperXYIPCOriginal, PaperXYIPCTask)
	b.WriteString("Paper: the original runs every phase in lock step across lanes; " +
		"the task version's phases smear out, and its main-phase IPC cloud scatters toward higher IPC.\n\n" +
		"Original version timeline:\n\n")
	fenced(b, orig.Trace.Timeline(100, int(knl.ClassVector)))
	b.WriteString("\nTask version timeline:\n\n")
	fenced(b, task.Trace.Timeline(100, int(knl.ClassVector)))
	b.WriteString("\nOriginal version IPC histogram:\n\n")
	fenced(b, orig.Trace.RenderIPCHistogram(40, 1.6))
	b.WriteString("\nTask version IPC histogram:\n\n")
	fenced(b, task.Trace.RenderIPCHistogram(40, 1.6))
	return nil
}

func (s *Suite) writeSweep(b *strings.Builder) error {
	r, err := s.SweepNTG()
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "## Section II — task-group sweep at %d MPI processes\n\n", r.TotalRanks)
	head(b, "NTG", "ranks per group", "runtime [sim-s]", "pack MPI [s]", "scatter MPI [s]")
	fastest := 0
	for i, ntg := range r.NTGs {
		fmt.Fprintf(b, "| %d | %d | %.4f | %.4f | %.4f |\n",
			ntg, r.TotalRanks/ntg, r.Runtimes[i], r.PackTime[i], r.ScatterT[i])
		if r.Runtimes[i] < r.Runtimes[fastest] {
			fastest = i
		}
	}
	last := len(r.NTGs) - 1
	fmt.Fprintf(b, "\nMPI times are summed over lanes. Paper: with one task group the pack is free "+
		"and \"all the cost is shifted to the scatter\"; with one group per process the scatter vanishes. "+
		"Measured: pack %.4f s at NTG = %d, scatter %.4f s at NTG = %d; the runtime is lowest at NTG = %d. "+
		"The model does not charge the per-rank cache working set that grows with NTG on real hardware.\n",
		r.PackTime[0], r.NTGs[0], r.ScatterT[last], r.NTGs[last], r.NTGs[fastest])
	return nil
}

func (s *Suite) writeAblation(b *strings.Builder) error {
	r, err := s.Ablation()
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "## Section IV — ablation at %s\n\n", s.configName(r.Ranks))
	head(b, "variant", "runtime [sim-s]", "main-phase IPC")
	for _, row := range r.Rows {
		fmt.Fprintf(b, "| %s | %.4f | %.3f |\n", row.Name, row.Runtime, row.XYIPC)
	}
	orig, _ := r.Row(ablOriginal)
	steps1, _ := r.Row(ablSteps1)
	comb, _ := r.Row(ablCombined)
	fmt.Fprintf(b, "\nWith one worker per rank the step-task engine follows the original's schedule "+
		"(%.4f against %.4f sim-s); with two it overlaps communication and computation on twice the lanes. "+
		"The combined engine, the paper's Section VI future work, gains %.1f%% over the original "+
		"with a main-phase IPC of %.3f.",
		steps1.Runtime, orig.Runtime, 100*gain(orig.Runtime, comb.Runtime), comb.XYIPC)
	if g, ok := r.Row(ablGamma); ok {
		task, _ := r.Row(ablTaskIter)
		fmt.Fprintf(b, " Gamma-point mode (half sphere, two bands per FFT) runs the task version in %.4f sim-s against %.4f.",
			g.Runtime, task.Runtime)
	}
	b.WriteString("\n")
	return nil
}

func (s *Suite) writeSensitivity(b *strings.Builder) error {
	r, err := s.Sensitivity()
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "## Model sensitivity at %s\n\n", s.configName(r.Ranks))
	head(b, "model variant", "original [sim-s]", "task [sim-s]", "gain", "main-phase IPC shift")
	lo, hi := r.Rows[0], r.Rows[0]
	for _, row := range r.Rows {
		fmt.Fprintf(b, "| %s | %.4f | %.4f | %+.1f%% | %+.3f |\n", row.Name, row.Original, row.Task, 100*row.Gain, row.XYShift)
		if row.Gain < lo.Gain {
			lo = row
		}
		if row.Gain > hi.Gain {
			hi = row
		}
	}
	fmt.Fprintf(b, "\nThe task version's gain over the original ranges from %+.1f%% (%s) to %+.1f%% (%s) across the node-model perturbations.\n",
		100*lo.Gain, lo.Name, 100*hi.Gain, hi.Name)
	return nil
}

func (s *Suite) writeBandSweep(b *strings.Builder) error {
	r, err := s.BandSweep()
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "## Section IV — gain against computational load at %s\n\n", s.configName(r.Ranks))
	head(b, "bands", "original [sim-s]", "task [sim-s]", "gain")
	for _, row := range r.Rows {
		fmt.Fprintf(b, "| %d | %.4f | %.4f | %+.1f%% |\n", row.NB, row.Original, row.Task, 100*row.Gain)
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	fmt.Fprintf(b, "\nSection IV: the per-iteration tasks are \"especially targeting scenarios with high computational load\". "+
		"Measured: the gain goes from %+.1f%% at %d bands to %+.1f%% at %d.\n",
		100*first.Gain, first.NB, 100*last.Gain, last.NB)
	return nil
}

func (s *Suite) writeEngines(b *strings.Builder) error {
	r, err := s.Engines()
	if err != nil {
		return err
	}
	b.WriteString("## Engine matrix\n\n")
	b.WriteString("Cost-mode runtime [sim-s] of every engine and the auto selector's pick. " +
		"n/a marks a configuration the engine cannot run (task-steps doubles the lanes); " +
		"(!) marks a pick that is not the row's fastest.\n\n")
	cols := []string{"config"}
	for _, e := range r.Engines {
		cols = append(cols, e.String())
	}
	head(b, append(cols, "auto picks")...)
	for _, row := range r.Rows {
		fmt.Fprintf(b, "| %s |", s.configName(row.Ranks))
		for _, t := range row.Runtime {
			if math.IsNaN(t) {
				b.WriteString(" n/a |")
				continue
			}
			fmt.Fprintf(b, " %.4f |", t)
		}
		mark := ""
		if row.Fastest(r.Engines) != row.Selected {
			mark = " (!)"
		}
		fmt.Fprintf(b, " %s%s |\n", row.Selected, mark)
	}
	return nil
}
