package core

import (
	"fmt"
	"io"

	"repro/internal/pop"
)

// WriteReport runs every experiment of the suite and writes a markdown
// report with the paper-vs-measured comparison — the machine-generated
// counterpart of EXPERIMENTS.md.
func (s Suite) WriteReport(w io.Writer) error {
	fmt.Fprintf(w, "# FFTXlib-on-KNL reproduction report\n\n")
	fmt.Fprintf(w, "Workload: energy cutoff %.0f Ry, lattice parameter %.0f bohr, %d bands, %d task groups.\n",
		s.Ecut, s.Alat, s.NB, s.NTG)
	fmt.Fprintf(w, "All runtimes are simulated seconds on the calibrated KNL node model.\n\n")

	fig6, err := s.Fig6()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Figures 2 and 6 — runtime of the FFT phase\n\n")
	fmt.Fprintf(w, "| config | original [s] | task [s] | gain |\n|---|---|---|---|\n")
	for i := range fig6.Original.Points {
		o, t := fig6.Original.Points[i], fig6.Task.Points[i]
		fmt.Fprintf(w, "| %s | %.4f | %.4f | %+.1f%% |\n",
			o.Config, o.Runtime, t.Runtime, 100*(o.Runtime-t.Runtime)/o.Runtime)
	}
	bo, bt := fig6.Original.Best(), fig6.Task.Best()
	fmt.Fprintf(w, "\nBest original: %s (%.4f s); best task: %s (%.4f s); best-vs-best gain %.1f%% (paper: ~10%%).\n\n",
		bo.Config, bo.Runtime, bt.Config, bt.Runtime, 100*fig6.BestGain())

	writeFactors := func(title string, r *FactorsResult) {
		fmt.Fprintf(w, "## %s\n\n", title)
		fmt.Fprintf(w, "measured (paper):\n\n| factor |")
		for _, c := range r.Configs {
			fmt.Fprintf(w, " %s |", c)
		}
		fmt.Fprintf(w, "\n|---|")
		for range r.Configs {
			fmt.Fprintf(w, "---|")
		}
		fmt.Fprintln(w)
		rows := []struct {
			name string
			get  func(pop.Factors) float64
			pub  []float64
		}{
			{"Parallel efficiency", func(f pop.Factors) float64 { return f.ParallelEff }, r.Paper.ParallelEff},
			{"Load balance", func(f pop.Factors) float64 { return f.LoadBalance }, r.Paper.LoadBalance},
			{"Communication eff.", func(f pop.Factors) float64 { return f.CommEff }, r.Paper.CommEff},
			{"Computation scal.", func(f pop.Factors) float64 { return f.CompScal }, r.Paper.CompScal},
			{"IPC scal.", func(f pop.Factors) float64 { return f.IPCScal }, r.Paper.IPCScal},
			{"Instruction scal.", func(f pop.Factors) float64 { return f.InstrScal }, r.Paper.InstrScal},
			{"Global efficiency", func(f pop.Factors) float64 { return f.GlobalEff }, r.Paper.GlobalEff},
		}
		for _, row := range rows {
			fmt.Fprintf(w, "| %s |", row.name)
			for i, f := range r.Factors {
				pub := "—"
				if i < len(row.pub) {
					pub = fmt.Sprintf("%.2f", row.pub[i])
				}
				fmt.Fprintf(w, " %.2f (%s) |", 100*row.get(f), pub)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	t1, err := s.Table1()
	if err != nil {
		return err
	}
	writeFactors("Table I — original version", t1)
	t2, err := s.Table2()
	if err != nil {
		return err
	}
	writeFactors("Table II — task version", t2)

	fig3, err := s.Fig3()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Figure 3 — phase IPCs\n\n")
	fmt.Fprintf(w, "| phase | measured | paper |\n|---|---|---|\n")
	fmt.Fprintf(w, "| psi preparation | %.3f | ~%.2f |\n", fig3.PrepIPC, PaperPhasePrepIPC)
	fmt.Fprintf(w, "| Z FFT | %.3f | ~%.2f |\n", fig3.ZIPC, PaperPhaseZIPC)
	fmt.Fprintf(w, "| XY FFT / VOFR | %.3f | ~%.2f |\n\n", fig3.XYIPC, PaperPhaseXYIPC)

	fig7, err := s.Fig7()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Figure 7 — de-synchronization\n\n")
	fmt.Fprintf(w, "Main-phase IPC: original %.3f → task %.3f (paper: ~%.2f → ~%.2f).\n\n",
		fig7.XYOrig, fig7.XYTask, PaperXYIPCOriginal, PaperXYIPCTask)

	abl, err := s.Ablation(8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Ablation (8 × %d)\n\n| variant | runtime [s] | main-phase IPC |\n|---|---|---|\n", s.NTG)
	for _, row := range abl.Rows {
		fmt.Fprintf(w, "| %s | %.4f | %.3f |\n", row.Name, row.Runtime, row.XYIPC)
	}
	fmt.Fprintln(w)

	sens, err := s.Sensitivity(8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Model sensitivity\n\n| variant | gain |\n|---|---|\n")
	for _, row := range sens.Rows {
		fmt.Fprintf(w, "| %s | %+.1f%% |\n", row.Name, 100*row.Gain)
	}
	fmt.Fprintln(w)
	return nil
}
