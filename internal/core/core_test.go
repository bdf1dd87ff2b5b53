package core

import (
	"bytes"
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pop"
)

// paper is the package's one full-scale suite. Every paper-scale test reads
// it, so `go test ./internal/core` simulates each configuration once. Its
// first use runs the sections the paper has, then the whole report,
// counting fftx_runs_total on the way.
var paper struct {
	once   sync.Once
	suite  *Suite
	report []byte
	err    error
	// paperRuns counts the runs of Figures 2/3/6/7, Tables I-II, the
	// ablation and the sensitivity study; allRuns those of the whole report.
	paperRuns, allRuns float64
}

func runsTotal() float64 { return metrics.Default().Gather().Sum("fftx_runs_total") }

func paperSuite(t *testing.T) (*Suite, []byte) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	paper.once.Do(func() {
		s := PaperSuite()
		start := runsTotal()
		for _, name := range []string{"fig2", "table1", "fig3", "table2", "fig6", "fig7", "ablation", "sensitivity"} {
			if paper.err = s.WriteSection(io.Discard, name); paper.err != nil {
				return
			}
		}
		paper.paperRuns = runsTotal() - start
		var buf bytes.Buffer
		paper.err = s.WriteReport(&buf)
		paper.allRuns = runsTotal() - start
		paper.suite, paper.report = s, buf.Bytes()
	})
	if paper.err != nil {
		t.Fatal(paper.err)
	}
	return paper.suite, paper.report
}

func sectionText(t *testing.T, s *Suite, name string) string {
	t.Helper()
	var sb strings.Builder
	if err := s.WriteSection(&sb, name); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestQuickSuiteFig2(t *testing.T) {
	s := QuickSuite()
	c, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 3 {
		t.Fatalf("points: %+v", c.Points)
	}
	for _, p := range c.Points {
		if p.Runtime <= 0 {
			t.Fatalf("non-positive runtime: %+v", p)
		}
	}
	// Scaling from 1 to 2 ranks must reduce runtime (far from saturation).
	if c.Points[1].Runtime >= c.Points[0].Runtime {
		t.Fatalf("no speedup from 1 to 2 ranks: %+v", c.Points)
	}
	if out := sectionText(t, s, "fig2"); !strings.Contains(out, "## Figure 2") || !strings.Contains(out, "speedup") {
		t.Fatalf("section:\n%s", out)
	}
}

func TestQuickSuiteTables(t *testing.T) {
	s := QuickSuite()
	for _, f := range []func(*Suite) (*FactorsResult, error){(*Suite).Table1, (*Suite).Table2} {
		r, err := f(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Factors) != 2 {
			t.Fatalf("factors: %+v", r.Factors)
		}
		// Reference column must be 100 % scalability by construction.
		if r.Factors[0].CompScal != 1 || r.Factors[0].IPCScal != 1 {
			t.Fatalf("reference column not unity: %+v", r.Factors[0])
		}
		// Efficiencies are percentages in (0, 1].
		for _, fac := range r.Factors {
			if fac.ParallelEff <= 0 || fac.ParallelEff > 1.0001 {
				t.Fatalf("parallel efficiency out of range: %+v", fac)
			}
		}
	}
	for _, name := range []string{"table1", "table2"} {
		out := sectionText(t, s, name)
		for _, want := range []string{"Measured (paper)", "Global efficiency", "Average IPC"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s missing %q:\n%s", name, want, out)
			}
		}
	}
}

func TestQuickSuiteFig3(t *testing.T) {
	s := QuickSuite()
	r, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// The qualitative ordering of Figure 3 must hold at any scale.
	if !(r.PrepIPC < r.ZIPC && r.ZIPC < r.XYIPC) {
		t.Fatalf("phase IPC ordering: prep %.3f, z %.3f, xy %.3f", r.PrepIPC, r.ZIPC, r.XYIPC)
	}
	if out := sectionText(t, s, "fig3"); !strings.Contains(out, "## Figure 3") || strings.Count(out, "```text") != 3 {
		t.Fatalf("section:\n%s", out)
	}
}

func TestQuickSuiteFig6(t *testing.T) {
	s := QuickSuite()
	orig, task, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Points) != len(task.Points) {
		t.Fatal("curve lengths differ")
	}
	if out := sectionText(t, s, "fig6"); !strings.Contains(out, "best-vs-best") {
		t.Fatalf("section:\n%s", out)
	}
}

func TestQuickSuiteFig7(t *testing.T) {
	s := QuickSuite()
	orig, task, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if xyO, xyT := mainPhaseIPC(orig), mainPhaseIPC(task); xyO <= 0 || xyT <= 0 {
		t.Fatalf("xy IPCs: %.3f %.3f", xyO, xyT)
	}
	if out := sectionText(t, s, "fig7"); !strings.Contains(out, "IPC histogram") {
		t.Fatalf("section:\n%s", out)
	}
}

func TestQuickSuiteSweepNTG(t *testing.T) {
	s := QuickSuite()
	r, err := s.SweepNTG()
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalRanks != 2*s.NTG || len(r.NTGs) < 2 {
		t.Fatalf("sweep: %+v", r)
	}
	// Section II extremes: NTG=1 must have zero pack communication time and
	// NTG=total zero scatter time.
	if r.NTGs[0] != 1 || r.PackTime[0] != 0 {
		t.Fatalf("NTG=1 pack time: %+v", r)
	}
	last := len(r.NTGs) - 1
	if r.NTGs[last] != r.TotalRanks || r.ScatterT[last] != 0 {
		t.Fatalf("NTG=total scatter time: %+v", r)
	}
	if !strings.Contains(sectionText(t, s, "sweep"), "task-group sweep") {
		t.Fatal("section missing header")
	}
}

func TestQuickSuiteAblation(t *testing.T) {
	r, err := QuickSuite().Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 4 {
		t.Fatalf("ablation rows: %+v", r.Rows)
	}
	for _, row := range r.Rows {
		if row.Runtime <= 0 {
			t.Fatalf("row %q runtime %v", row.Name, row.Runtime)
		}
	}
	for _, want := range []string{ablOriginal, ablSteps1, ablTaskIter, ablCombined, ablGamma} {
		if _, ok := r.Row(want); !ok {
			t.Fatalf("missing ablation %q in %+v", want, r.Rows)
		}
	}
}

func TestQuickSuiteSensitivity(t *testing.T) {
	s := QuickSuite()
	r, err := s.Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 8 {
		t.Fatalf("rows: %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Original <= 0 || row.Task <= 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
	if !strings.Contains(sectionText(t, s, "sensitivity"), "## Model sensitivity") {
		t.Fatal("section missing header")
	}
}

func TestQuickSuiteBandSweep(t *testing.T) {
	s := QuickSuite()
	r, err := s.BandSweep()
	if err != nil {
		t.Fatal(err)
	}
	// NB/8 = 2 bands does not divide over 4 task groups; 4 … 32 do.
	if len(r.Rows) != 4 || r.Rows[0].NB != 4 || r.Rows[3].NB != 2*s.NB {
		t.Fatalf("rows %+v", r.Rows)
	}
	// Runtime must grow ~linearly with the band count.
	if r.Rows[2].Original < 3*r.Rows[0].Original {
		t.Fatalf("runtime not growing with load: %+v", r.Rows)
	}
	if !strings.Contains(sectionText(t, s, "bandsweep"), "computational load") {
		t.Fatal("section missing header")
	}
}

func TestQuickSuiteWriteReport(t *testing.T) {
	s := QuickSuite()
	var sb strings.Builder
	if err := s.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# EXPERIMENTS", "## Figure 2", "## Table I ", "## Figure 3", "## Table II ",
		"## Figure 6", "## Figure 7", "## Section II", "ablation", "## Model sensitivity", "computational load",
		"## Engine matrix"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	if err := s.WriteSection(io.Discard, "all"); err == nil {
		t.Fatal("unknown section accepted")
	}
}

// The run table at paper scale, counted by fftx_runs_total. The sections
// the paper has make 38 runs: Figures 2 and 6 are original and task at six
// rank counts (12); Tables I-II and Figures 3/7 read those; the ablation
// adds 9; the sensitivity study adds 17 (its calibrated pair is Figure 6's
// 8 x 8, and its no-variance task run is the ablation's). The rest of the
// report adds 26: the NTG sweep 4 (its NTG = 8 point is Figure 2's 2 x 8),
// the band sweep 8 (128 bands is Figure 6's 8 x 8) and the engine matrix 14
// (30 cells less the 12 of Figure 6, the ablation's task-combined, dataflow
// and two-worker task-steps at 8 x 8, and task-steps at 32 x 8, which
// exceeds the lane limit and never runs).
func TestReportRunCounts(t *testing.T) {
	s, report := paperSuite(t)
	if paper.paperRuns != 38 {
		t.Errorf("the paper's sections made %g runs, want 38", paper.paperRuns)
	}
	if paper.allRuns != 64 {
		t.Errorf("the report made %g runs, want 64", paper.allRuns)
	}
	// Every run filled its own table entry: no configuration ran twice, and
	// no paper-scale test simulated anything the report does not.
	if float64(len(s.runs)) != paper.allRuns {
		t.Errorf("%d configurations in the run table, %g runs", len(s.runs), paper.allRuns)
	}
	before := runsTotal()
	var again bytes.Buffer
	if err := s.WriteReport(&again); err != nil {
		t.Fatal(err)
	}
	if d := runsTotal() - before; d != 0 {
		t.Errorf("a repeat report made %g runs, want 0", d)
	}
	if !bytes.Equal(again.Bytes(), report) {
		t.Error("a repeat report wrote different bytes")
	}
}

// EXPERIMENTS.md is the report, byte for byte.
func TestExperimentsMatchReport(t *testing.T) {
	_, report := paperSuite(t)
	file, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, report) {
		got, want := strings.Split(string(file), "\n"), strings.Split(string(report), "\n")
		line := 0
		for line < len(got) && line < len(want) && got[line] == want[line] {
			line++
		}
		t.Fatalf("EXPERIMENTS.md differs from the report from line %d on; regenerate it with "+
			"`go run ./cmd/fftxbench report > EXPERIMENTS.md` (make experiments)", line+1)
	}
}

// The headline result at paper scale: at the 8x8 configuration the task
// version must beat the original by at least today's margin, and the
// de-synchronization must raise the main-phase IPC. Section IV says the
// per-iteration tasks target "scenarios with high computational load", so
// over the band sweep the gain must be positive at every band count and
// grow strictly with the load. The gain must also survive every node-model
// perturbation of the sensitivity study.
func TestPaperScaleHeadline(t *testing.T) {
	s, _ := paperSuite(t)
	fig2, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if best := fig2.Best(); best.Ranks != s.noHTRanks() {
		t.Errorf("original's best configuration %s, want the largest without hyper-threading", s.configName(best.Ranks))
	}
	orig, task, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// Today's 5.7 % sits 1.3 points under the paper's 7 %: the floor holds
	// that residual.
	if g := gain(orig.Runtime, task.Runtime); g < PaperGainLow-0.015 {
		t.Fatalf("task version gain %.1f%% at 8x8, want at least %.1f%% (paper: 7-10%%)", 100*g, 100*(PaperGainLow-0.015))
	}
	if xyO, xyT := mainPhaseIPC(orig), mainPhaseIPC(task); xyT <= xyO {
		t.Fatalf("main-phase IPC did not rise: %.3f -> %.3f (paper: 0.75 -> 0.85)", xyO, xyT)
	}
	bands, err := s.BandSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(bands.Rows) != 5 {
		t.Fatalf("band sweep rows: %+v", bands.Rows)
	}
	for i, row := range bands.Rows {
		if row.Gain <= 0 {
			t.Errorf("task version gain %+.1f%% at %d bands, expected a win", 100*row.Gain, row.NB)
		}
		if i > 0 && row.Gain <= bands.Rows[i-1].Gain {
			t.Errorf("gain does not grow with load: %+.2f%% at %d bands after %+.2f%% at %d",
				100*row.Gain, row.NB, 100*bands.Rows[i-1].Gain, bands.Rows[i-1].NB)
		}
	}
	sens, err := s.Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range sens.Rows {
		if row.Gain <= 0 {
			t.Errorf("sensitivity %q: gain %+.1f%%, the headline must survive", row.Name, 100*row.Gain)
		}
	}
}

// A tolerance on one POP factor of a paper table.
type tablePin struct {
	row string    // a factorRows label
	tol []float64 // absolute percentage points, per configuration
}

// Per-factor tolerances of Tables I and II. Table I is the calibration
// target (internal/knl/params.go): every factor sits within a few points of
// the published value. Table II's tolerances are today's residual per
// configuration, rounded up, plus one point: the model's trade-off is
// milder than the paper's, so the gap widens with scale.
var paperTablePins = map[string][]tablePin{
	"Table I": {
		{"Parallel efficiency", []float64{4, 4, 4, 4, 4}},
		{"→ Communication eff.", []float64{6, 6, 6, 6, 6}},
		{"Computation scal.", []float64{4, 4, 4, 4, 4}},
		{"→ IPC scal.", []float64{4, 4, 4, 4, 4}},
		{"→ Instruction scal.", []float64{3, 3, 3, 3, 3}},
		{"Global efficiency", []float64{4, 4, 4, 4, 4}},
	},
	"Table II": {
		{"Parallel efficiency", []float64{2, 6, 2, 11, 22}},
		{"→ Communication eff.", []float64{2, 7, 5, 5, 19}},
		{"Computation scal.", []float64{1, 2, 4, 8, 11}},
		{"→ IPC scal.", []float64{1, 2, 7, 12, 15}},
		{"→ Instruction scal.", []float64{1, 2, 2, 3, 7}},
		{"Global efficiency", []float64{2, 5, 4, 2, 2}},
	},
}

// checkPaperTable holds every factor of a measured table within its pinned
// tolerance of the published value.
func checkPaperTable(t *testing.T, name string, table *FactorsResult) {
	t.Helper()
	for _, p := range paperTablePins[name] {
		var get func(pop.Factors) float64
		var pub []float64
		for _, row := range factorRows {
			if row.label == p.row {
				get, pub = row.get, row.pub(table.Paper)
			}
		}
		if get == nil {
			t.Fatalf("no factor row %q", p.row)
		}
		for i, f := range table.Factors {
			if got, want := 100*get(f), pub[i]; got < want-p.tol[i] || got > want+p.tol[i] {
				t.Errorf("%s %s at %s: measured %.2f%%, paper %.2f%% (tolerance %.0f points)",
					name, p.row, table.Configs[i], got, want, p.tol[i])
			}
		}
	}
}

// Lock the reproduction quality of Table I: the regression guard for the
// calibration in internal/knl/params.go.
func TestTable1WithinToleranceOfPaper(t *testing.T) {
	s, _ := paperSuite(t)
	t1, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	checkPaperTable(t, "Table I", t1)
}

// Lock Table II within its per-cell tolerances, and its direction against
// Table I: the task version's IPC scalability and global efficiency must
// beat the original's at every configuration past the reference.
func TestTable2DirectionLock(t *testing.T) {
	s, _ := paperSuite(t)
	t1, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	checkPaperTable(t, "Table II", t2)
	for i := 1; i < len(t2.Factors); i++ {
		if t2.Factors[i].IPCScal <= t1.Factors[i].IPCScal {
			t.Errorf("%s: task IPC scalability %.2f not above original %.2f",
				t2.Configs[i], 100*t2.Factors[i].IPCScal, 100*t1.Factors[i].IPCScal)
		}
		if t2.Factors[i].GlobalEff <= t1.Factors[i].GlobalEff {
			t.Errorf("%s: task global efficiency %.2f not above original %.2f",
				t2.Configs[i], 100*t2.Factors[i].GlobalEff, 100*t1.Factors[i].GlobalEff)
		}
	}
}

// The Section V average IPCs at paper scale, as the table1 and table2
// sections print them: the original's 1.1 / 0.6 / 0.3 at 1x8 / 8x8 / 16x8,
// and the task version above the original at 8x8 and under 2-way
// hyper-threading at 16x8 (paper: 0.5 against 0.3).
func TestSectionVIPCAnchors(t *testing.T) {
	s, _ := paperSuite(t)
	t1, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	tol := map[string]float64{"1 x 8": 0.15, "8 x 8": 0.08, "16 x 8": 0.08}
	for i, want := range PaperTable1.AvgIPC {
		if want == 0 {
			continue
		}
		cfg := t1.Configs[i]
		if got := t1.Factors[i].AvgIPC; got < want-tol[cfg] || got > want+tol[cfg] {
			t.Errorf("original avg IPC at %s = %.3f, paper ~%.1f", cfg, got, want)
		}
		if cfg == "1 x 8" {
			continue
		}
		if o, k := t1.Factors[i].AvgIPC, t2.Factors[i].AvgIPC; k <= o {
			t.Errorf("task IPC %.3f not above original %.3f at %s", k, o, cfg)
		}
	}
}
