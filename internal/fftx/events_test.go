package fftx

import (
	"testing"

	"repro/internal/vtime"
)

// engineStats runs cfg and returns its engine's activity counters.
func engineStats(t *testing.T, cfg Config) vtime.Stats {
	t.Helper()
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	pol, ok := policyOf(cfg.Engine)
	if !ok {
		t.Fatalf("no policy row for %v", cfg.Engine)
	}
	x := newSchedule(cfg, pol)
	if _, err := x.run(); err != nil {
		t.Fatal(err)
	}
	return x.eng.Stats()
}

// TestEventCountsPinned pins the step structure of the simulator: the
// dispatch steps, completed jobs, rate refreshes and processes of every
// engine at a flat and a grouped cost-mode shape, and of a gamma and a
// nested-loops run. The golden digests pin the simulated times; this pins
// the event stream that produces them, which a change to how processes are
// run must leave unchanged.
func TestEventCountsPinned(t *testing.T) {
	type counts struct{ steps, jobs, rates, procs uint64 }
	mk := func(e Engine, ranks, ntg int) Config {
		return Config{Ecut: testEcut, Alat: testAlat, NB: 8, Ranks: ranks, NTG: ntg, Engine: e, Mode: ModeCost}
	}
	gamma := mk(EngineDataflow, 2, 2)
	gamma.Gamma = true
	nested := mk(EngineTaskSteps, 2, 2)
	nested.NestedLoops, nested.NestedGrainXY, nested.NestedGrainZ = true, 3, 4
	for _, tc := range []struct {
		name string
		cfg  Config
		want counts
	}{
		{"original-2x1", mk(EngineOriginal, 2, 1), counts{258, 208, 208, 2}},
		{"task-steps-2x1", mk(EngineTaskSteps, 2, 1), counts{418, 208, 291, 6}},
		{"task-iter-2x1", mk(EngineTaskIter, 2, 1), counts{282, 208, 215, 4}},
		{"task-combined-2x1", mk(EngineTaskCombined, 2, 1), counts{346, 208, 241, 6}},
		{"dataflow-2x1", mk(EngineDataflow, 2, 1), counts{378, 208, 215, 6}},
		{"original-2x2", mk(EngineOriginal, 2, 2), counts{308, 208, 220, 4}},
		{"task-steps-2x2", mk(EngineTaskSteps, 2, 2), counts{504, 208, 290, 12}},
		{"task-iter-2x2", mk(EngineTaskIter, 2, 2), counts{290, 208, 235, 6}},
		{"task-combined-2x2", mk(EngineTaskCombined, 2, 2), counts{368, 208, 245, 10}},
		{"dataflow-2x2", mk(EngineDataflow, 2, 2), counts{386, 208, 228, 10}},
		{"dataflow-2x2-gamma", gamma, counts{202, 104, 112, 10}},
		{"task-steps-2x2-nested", nested, counts{608, 304, 397, 12}},
	} {
		st := engineStats(t, tc.cfg)
		got := counts{st.Steps, st.JobsCompleted, st.RateUpdates, st.ProcsSpawned}
		if got != tc.want {
			t.Errorf("%s: steps %d, jobs %d, rate updates %d, processes %d; want %d, %d, %d, %d",
				tc.name, got.steps, got.jobs, got.rates, got.procs, tc.want.steps, tc.want.jobs, tc.want.rates, tc.want.procs)
		}
	}
}

// TestPaperRunStartsNoGoroutine: every process a run creates — rank
// drivers, main processes, ompss workers, mpi communication helpers — is a
// callback process, so a run at the paper's 8×8 layout starts no goroutine
// and switches none, in either mode, while the engine still counts every
// process it spawned.
func TestPaperRunStartsNoGoroutine(t *testing.T) {
	for _, e := range []Engine{EngineOriginal, EngineTaskSteps, EngineTaskIter, EngineTaskCombined, EngineDataflow} {
		for _, mode := range []Mode{ModeCost, ModeReal} {
			st := engineStats(t, Config{Ecut: 20, Alat: 12, NB: 16, Ranks: 8, NTG: 8, Engine: e, Mode: mode})
			if st.Goroutines != 0 || st.Handoffs != 0 || st.ProcsSpawned == 0 {
				t.Errorf("%v mode %d: %d goroutines started, %d handoffs over %d processes; want 0 and 0",
					e, mode, st.Goroutines, st.Handoffs, st.ProcsSpawned)
			}
		}
	}
}
