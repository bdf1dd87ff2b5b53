package fftx

import (
	"math/cmplx"
	"testing"

	"repro/internal/fft"
	"repro/internal/pw"
	"repro/internal/trace"
)

// The combined (async-communication) engine and the nested-taskloop step
// engine must also match the serial reference exactly.
func TestExtendedEnginesMatchReference(t *testing.T) {
	ref := Reference(Config{Ecut: testEcut, Alat: testAlat, NB: 8})
	cases := []Config{
		testConfig(EngineTaskCombined, 1, 1, 8),
		testConfig(EngineTaskCombined, 1, 4, 8),
		testConfig(EngineTaskCombined, 2, 2, 8),
		testConfig(EngineTaskCombined, 3, 2, 8),
		testConfig(EngineTaskCombined, 2, 4, 8),
		testConfig(EngineDataflow, 1, 1, 8),
		testConfig(EngineDataflow, 1, 4, 8),
		testConfig(EngineDataflow, 2, 2, 8),
		testConfig(EngineDataflow, 3, 2, 8),
		testConfig(EngineDataflow, 2, 4, 8),
	}
	for _, ranks := range []int{1, 2, 3} {
		cfg := testConfig(EngineTaskSteps, ranks, 2, 8)
		cfg.NestedLoops = true
		cfg.NestedGrainXY = 3 // force several nested tasks on the tiny grid
		cfg.NestedGrainZ = 4
		cases = append(cases, cfg)
	}
	for _, cfg := range cases {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v %dx%d: %v", cfg.Engine, cfg.Ranks, cfg.NTG, err)
		}
		if d := maxBandDiff(t, res.Bands, ref); d > 1e-10 {
			t.Errorf("%v %dx%d nested=%v: max deviation %g", cfg.Engine, cfg.Ranks, cfg.NTG, cfg.NestedLoops, d)
		}
	}
}

func TestCombinedEngineDeterministic(t *testing.T) {
	cfg := testConfig(EngineTaskCombined, 2, 2, 4)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime || len(a.Trace.Intervals) != len(b.Trace.Intervals) {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d",
			a.Runtime, len(a.Trace.Intervals), b.Runtime, len(b.Trace.Intervals))
	}
}

// The combined engine hides communication behind computation: no MPI sync
// or transfer time may appear on any compute lane.
func TestCombinedEngineHidesCommFromLanes(t *testing.T) {
	res, err := Run(testConfig(EngineTaskCombined, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range res.Trace.Intervals {
		if iv.Kind == trace.KindMPISync || iv.Kind == trace.KindMPITransfer {
			t.Fatalf("combined engine recorded lane MPI time: %+v", iv)
		}
	}
}

// Nested task loops split one step's FFT across the rank's workers: with
// several workers the elapsed time of the step must shrink versus one
// worker, at equal total instructions.
func TestNestedLoopsUseAllWorkers(t *testing.T) {
	base := Config{Ecut: testEcut, Alat: testAlat, NB: 4, Ranks: 1, NTG: 1,
		Engine: EngineTaskSteps, Mode: ModeCost, NestedLoops: true,
		NestedGrainXY: 1, NestedGrainZ: 4}
	one := base
	one.StepWorkers = 1
	r1, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	four := base
	four.StepWorkers = 4
	r4, err := Run(four)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Runtime >= r1.Runtime {
		t.Fatalf("4 workers (%.6f) not faster than 1 (%.6f)", r4.Runtime, r1.Runtime)
	}
	// Instructions identical up to the per-chunk fixed overhead (more
	// chunks are recorded, each with the fixed bookkeeping term).
	i1, i4 := r1.Trace.TotalInstr(), r4.Trace.TotalInstr()
	if rel := (i4 - i1) / i1; rel < -0.01 || rel > 0.05 {
		t.Fatalf("instruction totals diverged: %g vs %g", i1, i4)
	}
}

// Cost-mode combined runs must also finish and produce sane runtimes.
func TestCombinedEngineCostMode(t *testing.T) {
	cfg := testConfig(EngineTaskCombined, 2, 4, 8)
	cfg.Mode = ModeCost
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 || res.Bands != nil {
		t.Fatalf("cost run: runtime %v, bands %v", res.Runtime, res.Bands != nil)
	}
}

// At a contended configuration the combined engine must not be slower than
// the plain per-iteration task engine: hiding the scatters can only help.
func TestCombinedNotSlowerThanTaskIter(t *testing.T) {
	mk := func(e Engine) float64 {
		cfg := Config{Ecut: 20, Alat: 12, NB: 32, Ranks: 4, NTG: 4,
			Engine: e, Mode: ModeCost}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Runtime
	}
	iter := mk(EngineTaskIter)
	comb := mk(EngineTaskCombined)
	if comb > iter*1.02 {
		t.Fatalf("combined (%.6f) slower than task-iter (%.6f)", comb, iter)
	}
}

// With V(r) = 1 the whole pipeline is the identity operator: forward 3-D
// FFT, multiply by one, backward FFT with 1/N. Every engine must return the
// input bands to rounding error — the strongest end-to-end invariant.
func TestUnitPotentialIsIdentity(t *testing.T) {
	for _, engine := range []Engine{EngineOriginal, EngineTaskSteps, EngineTaskIter, EngineTaskCombined, EngineDataflow} {
		cfg := testConfig(engine, 2, 2, 4)
		cfg.UnitPotential = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		in := pw.WavefunctionBands(res.Sphere, cfg.NB)
		if d := maxBandDiff(t, res.Bands, in); d > 1e-12 {
			t.Errorf("%v: identity violated by %g", engine, d)
		}
	}
}

// The identity invariant in gamma mode.
func TestUnitPotentialIsIdentityGamma(t *testing.T) {
	for _, engine := range []Engine{EngineOriginal, EngineTaskIter, EngineDataflow} {
		cfg := testConfig(engine, 2, 2, 4)
		cfg.Gamma = true
		cfg.UnitPotential = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		in := pw.WavefunctionBandsGamma(res.Sphere, cfg.NB)
		if d := maxBandDiff(t, res.Bands, in); d > 1e-12 {
			t.Errorf("%v gamma: identity violated by %g", engine, d)
		}
	}
}

// The operator is linear: applying it to a scaled sum of two bands must
// equal the scaled sum of the individually transformed bands. The engines
// transform a fixed generated band set, so linearity is checked across
// bands of one run using the serial reference as the linear map.
func TestOperatorLinearityViaReference(t *testing.T) {
	cfg := testConfig(EngineTaskIter, 2, 2, 4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := pw.WavefunctionBands(res.Sphere, cfg.NB)
	// Build w = 2*in[0] - 3*in[1]; the operator image of w must equal
	// 2*out[0] - 3*out[1]. Verify with the serial machinery.
	s := res.Sphere
	w := make([]complex128, s.NG())
	want := make([]complex128, s.NG())
	for i := range w {
		w[i] = 2*in[0][i] - 3*in[1][i]
		want[i] = 2*res.Bands[0][i] - 3*res.Bands[1][i]
	}
	pot := pw.Potential(s.Grid)
	plan := fft.NewPlan3D(s.Grid.Nx, s.Grid.Ny, s.Grid.Nz)
	box := make([]complex128, s.Grid.Size())
	s.FillBox(box, w)
	plan.Transform(box, fft.Backward)
	for i := range box {
		box[i] *= complex(pot[i], 0)
	}
	plan.Transform(box, fft.Forward)
	got := make([]complex128, s.NG())
	s.ExtractBox(got, box)
	for i := range got {
		got[i] *= complex(1/float64(s.Grid.Size()), 0)
		if d := cmplx.Abs(got[i] - want[i]); d > 1e-9 {
			t.Fatalf("linearity violated at %d: %v vs %v", i, got[i], want[i])
		}
	}
}
