package fftx

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestTelemetryPopulated runs a small config of every task engine and
// checks that every instrumented layer fed the default registry: run
// counts, per-phase compute (live IPC inputs), MPI collectives with bytes,
// and task-runtime activity. The task counters must balance after each run:
// every created task completed, none left in flight, and no body-less event
// node counted as a task. Deltas are used because the registry is
// process-wide.
func TestTelemetryPopulated(t *testing.T) {
	for _, e := range []Engine{EngineTaskSteps, EngineTaskIter, EngineTaskCombined, EngineDataflow} {
		before := metrics.Default().Gather()
		cfg := Config{Ecut: 10, Alat: 10, NB: 8, Ranks: 4, NTG: 2, Engine: e, Mode: ModeCost}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		after := metrics.Default().Gather()
		delta := func(name string) float64 { return after.Sum(name) - before.Sum(name) }

		if d, _ := after.Get("fftx_runs_total", e.String()); d < 1 {
			t.Fatalf("fftx_runs_total{engine=%v} = %g, want >= 1", e, d)
		}
		for _, name := range []string{
			"fftx_phase_compute_seconds_total",
			"fftx_phase_instructions_total",
			"fftx_mpi_calls_total",
			"fftx_mpi_bytes_total",
			"fftx_ompss_tasks_created_total",
			"fftx_ompss_tasks_completed_total",
			"fftx_vtime_steps_total",
			"fftx_vtime_block_seconds_total",
		} {
			if delta(name) <= 0 {
				t.Errorf("%v: %s did not advance during the run", e, name)
			}
		}
		if d := delta("fftx_ompss_tasks_created_total") - delta("fftx_ompss_tasks_completed_total"); d != 0 {
			t.Errorf("%v: tasks created-completed delta = %g, want 0 after a finished run", e, d)
		}
		if d := delta("fftx_ompss_tasks_in_flight"); d != 0 {
			t.Errorf("%v: tasks in flight moved by %g over a finished run, want 0", e, d)
		}
		if f, ok := after.Get("fftx_core_frequency_hz"); !ok || f <= 0 {
			t.Errorf("fftx_core_frequency_hz = %g,%v", f, ok)
		}
		// Live IPC is computable from the exposed families.
		ipc := delta("fftx_phase_instructions_total") /
			(delta("fftx_phase_compute_seconds_total") * after.Sum("fftx_core_frequency_hz"))
		if ipc <= 0 || ipc > 16 {
			t.Errorf("%v: live IPC = %g, want a sane positive value", e, ipc)
		}
	}
}

// TestConfigSinkTee checks that a streaming Sink on the Config receives the
// same intervals the in-memory trace accumulates.
func TestConfigSinkTee(t *testing.T) {
	ring := trace.NewRingSink(1 << 16)
	cfg := Config{Ecut: 10, Alat: 10, NB: 8, Ranks: 2, NTG: 1,
		Engine: EngineOriginal, Mode: ModeCost, Sink: ring}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Intervals) == 0 {
		t.Fatal("run recorded no intervals")
	}
	if ring.Len() != len(res.Trace.Intervals) {
		t.Fatalf("ring saw %d intervals, trace has %d", ring.Len(), len(res.Trace.Intervals))
	}
	if ring.Snapshot()[0] != res.Trace.Intervals[0] {
		t.Fatal("ring and trace disagree on the first interval")
	}
}
