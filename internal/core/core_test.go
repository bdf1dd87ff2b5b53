package core

import (
	"strings"
	"testing"

	"repro/internal/fftx"
)

func TestQuickSuiteFig2(t *testing.T) {
	r, err := QuickSuite().Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curve.Points) != 3 {
		t.Fatalf("points: %+v", r.Curve.Points)
	}
	for _, p := range r.Curve.Points {
		if p.Runtime <= 0 {
			t.Fatalf("non-positive runtime: %+v", p)
		}
	}
	// Scaling from 1 to 2 ranks must reduce runtime (far from saturation).
	if r.Curve.Points[1].Runtime >= r.Curve.Points[0].Runtime {
		t.Fatalf("no speedup from 1 to 2 ranks: %+v", r.Curve.Points)
	}
	out := r.Format()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "#") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestQuickSuiteTables(t *testing.T) {
	for _, f := range []func(Suite) (*FactorsResult, error){Suite.Table1, Suite.Table2} {
		r, err := f(QuickSuite())
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
		out := r.Format()
		for _, want := range []string{"measured", "paper", "Global Efficiency"} {
			if !strings.Contains(out, want) {
				t.Fatalf("format missing %q:\n%s", want, out)
			}
		}
	}
}

func TestQuickSuiteFig3(t *testing.T) {
	r, err := QuickSuite().Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// The qualitative ordering of Figure 3 must hold at any scale.
	if !(r.PrepIPC < r.ZIPC && r.ZIPC < r.XYIPC) {
		t.Fatalf("phase IPC ordering: prep %.3f, z %.3f, xy %.3f", r.PrepIPC, r.ZIPC, r.XYIPC)
	}
	if !strings.Contains(r.Format(), "Figure 3") {
		t.Fatal("format missing header")
	}
}

func TestQuickSuiteFig6(t *testing.T) {
	r, err := QuickSuite().Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Original.Points) != len(r.Task.Points) {
		t.Fatal("curve lengths differ")
	}
	out := r.Format()
	if !strings.Contains(out, "best-vs-best") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestQuickSuiteFig7(t *testing.T) {
	r, err := QuickSuite().Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if r.XYOrig <= 0 || r.XYTask <= 0 {
		t.Fatalf("xy IPCs: %.3f %.3f", r.XYOrig, r.XYTask)
	}
	out := r.Format()
	if !strings.Contains(out, "IPC histogram") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestQuickSuiteSweepNTG(t *testing.T) {
	r, err := QuickSuite().SweepNTG(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NTGs) < 2 {
		t.Fatalf("sweep too small: %+v", r)
	}
	// Section II extremes: NTG=1 must have zero pack communication time and
	// NTG=total zero scatter time.
	if r.NTGs[0] != 1 || r.PackTime[0] != 0 {
		t.Fatalf("NTG=1 pack time: %+v", r)
	}
	last := len(r.NTGs) - 1
	if r.NTGs[last] != 4 || r.ScatterT[last] != 0 {
		t.Fatalf("NTG=total scatter time: %+v", r)
	}
	if !strings.Contains(r.Format(), "sweep") {
		t.Fatal("format missing header")
	}
}

func TestQuickSuiteAblation(t *testing.T) {
	r, err := QuickSuite().Ablation(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 4 {
		t.Fatalf("ablation rows: %+v", r.Rows)
	}
	names := map[string]bool{}
	for _, row := range r.Rows {
		if row.Runtime <= 0 {
			t.Fatalf("row %q runtime %v", row.Name, row.Runtime)
		}
		names[row.Name] = true
	}
	for _, want := range []string{"original (static task groups)", "task-iter (per-band tasks)"} {
		if !names[want] {
			t.Fatalf("missing ablation %q in %v", want, names)
		}
	}
}

// The headline result at paper scale: at the 8x8 configuration the task
// version must beat the original, and the de-synchronization must raise the
// main-phase IPC. Section IV says the per-iteration tasks target "scenarios
// with high computational load", so over the band sweep the gain must be
// positive at every band count and grow strictly with the load.
func TestPaperScaleHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	s := PaperSuite()
	orig, err := fftx.Run(s.config(fftx.EngineOriginal, 8))
	if err != nil {
		t.Fatal(err)
	}
	task, err := fftx.Run(s.config(fftx.EngineTaskIter, 8))
	if err != nil {
		t.Fatal(err)
	}
	gain := (orig.Runtime - task.Runtime) / orig.Runtime
	if gain < 0.02 {
		t.Fatalf("task version gain %.1f%% at 8x8, expected a clear win (paper: 7-10%%)", 100*gain)
	}
	xyO := orig.Trace.PhaseAvgIPC("fft-xy", "vofr")
	xyT := task.Trace.PhaseAvgIPC("fft-xy", "vofr")
	if xyT <= xyO {
		t.Fatalf("main-phase IPC did not rise: %.3f -> %.3f (paper: 0.75 -> 0.85)", xyO, xyT)
	}
	bands, err := s.BandSweep(8, []int{16, 32, 64, 128, 256})
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
}

func TestQuickSuiteSensitivity(t *testing.T) {
	r, err := QuickSuite().Sensitivity(2)
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
	if !strings.Contains(r.Format(), "sensitivity") {
		t.Fatal("format missing header")
	}
}

// Lock the reproduction quality: at the paper's workload, every measured
// Table I factor must sit within tolerance of the published value. This is
// the regression guard for the calibration in internal/knl/params.go.
func TestTable1WithinToleranceOfPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	r, err := PaperSuite().Table1()
	if err != nil {
		t.Fatal(err)
	}
	p := PaperTable1
	type check struct {
		name string
		get  func(i int) float64 // measured, percent
		pub  []float64
		tol  float64 // absolute percentage points
	}
	checks := []check{
		{"parallel efficiency", func(i int) float64 { return 100 * r.Factors[i].ParallelEff }, p.ParallelEff, 4},
		{"communication efficiency", func(i int) float64 { return 100 * r.Factors[i].CommEff }, p.CommEff, 6},
		{"computation scalability", func(i int) float64 { return 100 * r.Factors[i].CompScal }, p.CompScal, 4},
		{"IPC scalability", func(i int) float64 { return 100 * r.Factors[i].IPCScal }, p.IPCScal, 4},
		{"instruction scalability", func(i int) float64 { return 100 * r.Factors[i].InstrScal }, p.InstrScal, 3},
		{"global efficiency", func(i int) float64 { return 100 * r.Factors[i].GlobalEff }, p.GlobalEff, 4},
	}
	for _, c := range checks {
		for i := range r.Factors {
			got, want := c.get(i), c.pub[i]
			if got < want-c.tol || got > want+c.tol {
				t.Errorf("%s at %s: measured %.2f%%, paper %.2f%% (tolerance %.0f points)",
					c.name, r.Configs[i], got, want, c.tol)
			}
		}
	}
}

// The Section V IPC anchors at paper scale.
func TestSectionVIPCAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	s := PaperSuite()
	ipcAt := func(engine fftx.Engine, ranks int) float64 {
		res, err := fftx.Run(s.config(engine, ranks))
		if err != nil {
			t.Fatal(err)
		}
		f := res.Trace.AvgIPC()
		return f
	}
	// Original: 1.1 at 1x8, 0.6 at 8x8, ~0.3 at 16x8.
	for _, c := range []struct {
		ranks int
		want  float64
		tol   float64
	}{{1, 1.1, 0.15}, {8, 0.6, 0.08}, {16, 0.3, 0.08}} {
		got := ipcAt(fftx.EngineOriginal, c.ranks)
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("original avg IPC at %dx8 = %.3f, paper ~%.1f", c.ranks, got, c.want)
		}
	}
	// Task version keeps more IPC than the original at 8x8 and 16x8.
	for _, ranks := range []int{8, 16} {
		o, k := ipcAt(fftx.EngineOriginal, ranks), ipcAt(fftx.EngineTaskIter, ranks)
		if k <= o {
			t.Errorf("task IPC %.3f not above original %.3f at %dx8", k, o, ranks)
		}
	}
}

func TestQuickSuiteWriteReport(t *testing.T) {
	var sb strings.Builder
	if err := QuickSuite().WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# FFTXlib", "Table I", "Table II", "Figure 3",
		"Figure 7", "Ablation", "sensitivity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestQuickSuiteBandSweep(t *testing.T) {
	s := QuickSuite()
	r, err := s.BandSweep(2, []int{8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %+v", r.Rows)
	}
	// Runtime must grow ~linearly with the band count.
	if r.Rows[2].Original < 3*r.Rows[0].Original {
		t.Fatalf("runtime not growing with load: %+v", r.Rows)
	}
	if !strings.Contains(r.Format(), "load") {
		t.Fatal("format missing header")
	}
}

// Lock Table II's qualitative content: at every scale the task version's
// IPC scalability and global efficiency beat the original's (the paper's
// core claim), and the global efficiencies stay within a few points of the
// published column.
func TestTable2DirectionLock(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	s := PaperSuite()
	t1, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for i := range t2.Factors {
		if i == 0 {
			continue // reference column is 100% by construction
		}
		if t2.Factors[i].IPCScal <= t1.Factors[i].IPCScal {
			t.Errorf("%s: task IPC scalability %.2f not above original %.2f",
				t2.Configs[i], 100*t2.Factors[i].IPCScal, 100*t1.Factors[i].IPCScal)
		}
		if t2.Factors[i].GlobalEff <= t1.Factors[i].GlobalEff {
			t.Errorf("%s: task global efficiency %.2f not above original %.2f",
				t2.Configs[i], 100*t2.Factors[i].GlobalEff, 100*t1.Factors[i].GlobalEff)
		}
		pub := PaperTable2.GlobalEff[i]
		got := 100 * t2.Factors[i].GlobalEff
		if got < pub-5 || got > pub+5 {
			t.Errorf("%s: task global efficiency %.2f%% vs paper %.2f%% (5-point tolerance)",
				t2.Configs[i], got, pub)
		}
	}
}
