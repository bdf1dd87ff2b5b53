package fftx

import (
	"testing"

	"repro/internal/trace"
)

// The dataflow engine's defining property: no process ever blocks at a
// taskwait barrier. The combined engine at the same shape must show the
// stall the dataflow engine eliminated.
func TestDataflowHasNoTaskwaitStall(t *testing.T) {
	mk := func(e Engine) *Result {
		cfg := Config{Ecut: 20, Alat: 12, NB: 32, Ranks: 4, NTG: 4,
			Engine: e, Mode: ModeCost}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		return res
	}
	df := mk(EngineDataflow)
	if df.TaskwaitSec != 0 {
		t.Errorf("dataflow run reports TaskwaitSec %v, want 0", df.TaskwaitSec)
	}
	comb := mk(EngineTaskCombined)
	if comb.TaskwaitSec <= 0 {
		t.Errorf("task-combined run reports TaskwaitSec %v, want > 0", comb.TaskwaitSec)
	}
}

// Like the combined engine, dataflow workers never block in MPI: every
// scatter is posted asynchronously, so no MPI sync or transfer time may
// appear on any compute lane.
func TestDataflowHidesCommFromLanes(t *testing.T) {
	res, err := Run(testConfig(EngineDataflow, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range res.Trace.Intervals {
		if iv.Kind == trace.KindMPISync || iv.Kind == trace.KindMPITransfer {
			t.Fatalf("dataflow engine recorded lane MPI time: %+v", iv)
		}
	}
}

// On narrow-rank shapes (the quick-suite points 1x4 and 2x4) the
// bounded-lookahead dataflow schedule must beat the combined engine's
// greedy one.
func TestDataflowFasterThanCombinedWhenContended(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		mk := func(e Engine) float64 {
			cfg := Config{Ecut: 10, Alat: 10, NB: 16, Ranks: ranks, NTG: 4,
				Engine: e, Mode: ModeCost}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v: %v", e, err)
			}
			return res.Runtime
		}
		df := mk(EngineDataflow)
		comb := mk(EngineTaskCombined)
		if df >= comb {
			t.Fatalf("%dx4: dataflow (%.6f) not faster than task-combined (%.6f)", ranks, df, comb)
		}
	}
}

// Instruction totals are engine-invariant (the jitter draws key on the
// band/position/phase, never the schedule), so the dataflow schedule may
// only move work, not change it.
func TestDataflowInstructionTotalsMatchTaskIter(t *testing.T) {
	mk := func(e Engine) float64 {
		cfg := testConfig(e, 2, 2, 8)
		cfg.Mode = ModeCost
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		return res.Trace.TotalInstr()
	}
	if df, it := mk(EngineDataflow), mk(EngineTaskIter); df != it {
		t.Fatalf("instruction totals differ: dataflow %g vs task-iter %g", df, it)
	}
}
