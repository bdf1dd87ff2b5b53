package fftx

import (
	"math/cmplx"
	"testing"

	"repro/internal/trace"
)

const (
	testEcut = 6.0
	testAlat = 6.0
)

func testConfig(engine Engine, ranks, ntg, nb int) Config {
	return Config{
		Ecut: testEcut, Alat: testAlat,
		NB: nb, Ranks: ranks, NTG: ntg,
		Engine: engine, Mode: ModeReal,
	}
}

func maxBandDiff(t *testing.T, got, want [][]complex128) float64 {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("band count %d vs %d", len(got), len(want))
	}
	var m float64
	for b := range got {
		if len(got[b]) != len(want[b]) {
			t.Fatalf("band %d length %d vs %d", b, len(got[b]), len(want[b]))
		}
		for i := range got[b] {
			if d := cmplx.Abs(got[b][i] - want[b][i]); d > m {
				m = d
			}
		}
	}
	return m
}

// Every engine, across a matrix of rank/task-group configurations, must
// reproduce the serial reference exactly (to rounding error).
func TestEnginesMatchSerialReference(t *testing.T) {
	ref := Reference(Config{Ecut: testEcut, Alat: testAlat, NB: 8})
	cases := []struct {
		engine Engine
		ranks  int
		ntg    int
	}{
		{EngineOriginal, 1, 1},
		{EngineOriginal, 1, 4},
		{EngineOriginal, 2, 2},
		{EngineOriginal, 3, 2},
		{EngineOriginal, 2, 4},
		{EngineTaskIter, 1, 1},
		{EngineTaskIter, 1, 4},
		{EngineTaskIter, 2, 2},
		{EngineTaskIter, 3, 2},
		{EngineTaskIter, 2, 4},
		{EngineTaskSteps, 1, 2},
		{EngineTaskSteps, 2, 2},
		{EngineTaskSteps, 2, 4},
		{EngineTaskSteps, 3, 2},
	}
	for _, tc := range cases {
		cfg := testConfig(tc.engine, tc.ranks, tc.ntg, 8)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v %dx%d: %v", tc.engine, tc.ranks, tc.ntg, err)
		}
		if d := maxBandDiff(t, res.Bands, ref); d > 1e-10 {
			t.Errorf("%v %dx%d: max deviation from reference %g", tc.engine, tc.ranks, tc.ntg, d)
		}
	}
}

// All three engines must agree bit-for-bit on phases being deterministic:
// running twice gives identical traces and runtimes.
func TestRunDeterministic(t *testing.T) {
	for _, engine := range []Engine{EngineOriginal, EngineTaskSteps, EngineTaskIter} {
		cfg := testConfig(engine, 2, 2, 4)
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Runtime != b.Runtime {
			t.Errorf("%v: runtimes differ: %v vs %v", engine, a.Runtime, b.Runtime)
		}
		if len(a.Trace.Intervals) != len(b.Trace.Intervals) {
			t.Errorf("%v: interval counts differ", engine)
			continue
		}
		for i := range a.Trace.Intervals {
			if a.Trace.Intervals[i] != b.Trace.Intervals[i] {
				t.Errorf("%v: trace diverges at interval %d", engine, i)
				break
			}
		}
	}
}

// Cost mode must run without any band data and produce a non-trivial trace
// with the same phase structure as real mode.
func TestCostModeMatchesRealModePhases(t *testing.T) {
	for _, engine := range []Engine{EngineOriginal, EngineTaskSteps, EngineTaskIter} {
		cfgReal := testConfig(engine, 2, 2, 4)
		cfgCost := cfgReal
		cfgCost.Mode = ModeCost
		real, err := Run(cfgReal)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := Run(cfgCost)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Bands != nil {
			t.Errorf("%v: cost mode returned band data", engine)
		}
		if cost.Runtime <= 0 {
			t.Errorf("%v: cost mode runtime %v", engine, cost.Runtime)
		}
		// Identical modeled time: cost mode charges the same instruction
		// counts and communication volumes, to the last bit.
		if cost.Runtime != real.Runtime {
			t.Errorf("%v: cost runtime %v differs from real %v", engine, cost.Runtime, real.Runtime)
		}
		rp := real.Trace.Phases()
		cp := cost.Trace.Phases()
		if len(rp) != len(cp) {
			t.Errorf("%v: phases differ: %v vs %v", engine, rp, cp)
		}
	}
}

func TestInstructionCountsEngineInvariant(t *testing.T) {
	// The same physical work is done regardless of engine; total modeled
	// instructions must agree within the fixed-overhead term.
	base := testConfig(EngineOriginal, 2, 2, 4)
	orig, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := Run(testConfig(EngineTaskIter, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	oi, ii := orig.Trace.TotalInstr(), iter.Trace.TotalInstr()
	rel := (oi - ii) / oi
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.10 {
		t.Fatalf("instruction totals differ %.1f%%: original %g, task-iter %g", 100*rel, oi, ii)
	}
}

func TestValidationErrors(t *testing.T) {
	bad := []Config{
		{Ecut: 0, Alat: 6, NB: 4, Ranks: 1, NTG: 1},
		{Ecut: 6, Alat: 6, NB: 5, Ranks: 1, NTG: 2},   // NB not divisible
		{Ecut: 6, Alat: 6, NB: 4, Ranks: 200, NTG: 4}, // too many lanes
		{Ecut: 6, Alat: 6, NB: 4, Ranks: 0, NTG: 1},   // no ranks
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestTraceHasAllKinds(t *testing.T) {
	res, err := Run(testConfig(EngineOriginal, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr.TotalComputeTime() <= 0 {
		t.Fatal("no compute recorded")
	}
	var sync, xfer float64
	for _, v := range tr.TimeByKind(trace.KindMPISync) {
		sync += v
	}
	for _, v := range tr.TimeByKind(trace.KindMPITransfer) {
		xfer += v
	}
	if xfer <= 0 {
		t.Fatal("no MPI transfer recorded")
	}
	_ = sync // sync may be ~0 on perfectly balanced tiny runs
}

// The Figure 3 structure: the trace of the original engine must contain the
// pipeline phases, and the main XY phase must have the highest IPC among
// compute phases while prep has the lowest.
func TestPhaseIPCOrdering(t *testing.T) {
	res, err := Run(testConfig(EngineOriginal, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	prep := tr.PhaseAvgIPC("prep")
	fftz := tr.PhaseAvgIPC("fft-z")
	fftxy := tr.PhaseAvgIPC("fft-xy")
	if !(prep < fftz && fftz < fftxy) {
		t.Fatalf("phase IPC ordering violated: prep %.3f, fft-z %.3f, fft-xy %.3f", prep, fftz, fftxy)
	}
}

// NTG extremes (Section II): with NTG=1 all communication cost sits in the
// scatter; with NTG=ranks the scatter is free and the pack dominates.
func TestTaskGroupExtremes(t *testing.T) {
	// NTG = 1: pack communicators have a single member, so the pack
	// Alltoallv must charge no transfer on the pack comm.
	res1, err := Run(Config{Ecut: testEcut, Alat: testAlat, NB: 4, Ranks: 4, NTG: 1,
		Engine: EngineOriginal, Mode: ModeReal})
	if err != nil {
		t.Fatal(err)
	}
	var packXfer, grpXfer float64
	for _, iv := range res1.Trace.Intervals {
		if iv.Kind == trace.KindMPITransfer {
			if len(iv.Comm) >= 4 && iv.Comm[:4] == "pack" {
				packXfer += iv.Duration()
			}
			if len(iv.Comm) >= 3 && iv.Comm[:3] == "grp" {
				grpXfer += iv.Duration()
			}
		}
	}
	if packXfer > 0 {
		t.Fatalf("NTG=1: pack transfer should be zero, got %v", packXfer)
	}
	if grpXfer <= 0 {
		t.Fatal("NTG=1: expected scatter transfer")
	}

	// NTG = total: groups of one rank, scatter free, pack carries it all.
	res2, err := Run(Config{Ecut: testEcut, Alat: testAlat, NB: 4, Ranks: 1, NTG: 4,
		Engine: EngineOriginal, Mode: ModeReal})
	if err != nil {
		t.Fatal(err)
	}
	packXfer, grpXfer = 0, 0
	for _, iv := range res2.Trace.Intervals {
		if iv.Kind == trace.KindMPITransfer {
			if len(iv.Comm) >= 4 && iv.Comm[:4] == "pack" {
				packXfer += iv.Duration()
			}
			if len(iv.Comm) >= 3 && iv.Comm[:3] == "grp" {
				grpXfer += iv.Duration()
			}
		}
	}
	if grpXfer > 0 {
		t.Fatalf("NTG=ranks: scatter transfer should be zero, got %v", grpXfer)
	}
	if packXfer <= 0 {
		t.Fatal("NTG=ranks: expected pack transfer")
	}
}

func TestLanesAccounting(t *testing.T) {
	cfg := testConfig(EngineOriginal, 2, 4, 8)
	if cfg.Lanes() != 8 {
		t.Fatalf("original lanes = %d, want 8", cfg.Lanes())
	}
	cfg.Engine = EngineTaskIter
	if cfg.Lanes() != 8 {
		t.Fatalf("task-iter lanes = %d, want 8", cfg.Lanes())
	}
	cfg.Engine = EngineTaskSteps
	cfg.StepWorkers = 2
	if cfg.Lanes() != 16 {
		t.Fatalf("task-steps lanes = %d, want 16", cfg.Lanes())
	}
}
