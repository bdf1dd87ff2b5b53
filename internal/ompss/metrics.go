package ompss

import (
	"repro/internal/memo"
	"repro/internal/metrics"
)

// Live telemetry for the task runtime. All runtimes in the process feed the
// same families; tasks_in_flight and ready_depth are therefore aggregate
// gauges across live runtimes.
var (
	mTasksCreated   = metrics.Default().Counter("fftx_ompss_tasks_created_total", "tasks submitted")
	mTasksCompleted = metrics.Default().Counter("fftx_ompss_tasks_completed_total", "tasks completed")
	mTasksInFlight  = metrics.Default().Gauge("fftx_ompss_tasks_in_flight", "submitted but not yet completed tasks")
	mReadyDepth     = metrics.Default().Gauge("fftx_ompss_ready_depth", "tasks ready to run but not yet claimed")
	mTaskwaitStalls = metrics.Default().Counter("fftx_ompss_taskwait_stalls_total", "Taskwait calls that had to block")
	mTaskwaitSec    = metrics.Default().Counter("fftx_ompss_taskwait_stall_seconds_total", "virtual seconds blocked in Taskwait")
	mTaskDuration   = metrics.Default().Histogram("fftx_ompss_task_duration_seconds", "task body execution time", nil)

	// Shared with the mpi layer (same family names, deduplicated by the
	// registry): per-phase compute seconds and instructions for live IPC.
	mPhaseSec   = metrics.Default().CounterVec("fftx_phase_compute_seconds_total", "virtual seconds of useful compute, by phase", "phase")
	mPhaseInstr = metrics.Default().CounterVec("fftx_phase_instructions_total", "instructions executed, by phase", "phase")
)

// phaseMetrics caches the handles of one compute phase.
type phaseMetrics struct {
	seconds, instr *metrics.Counter
}

// phaseHandles resolves each phase's handles once per process, for every
// runtime of every engine.
var phaseHandles memo.Map[string, *phaseMetrics]

func newPhaseMetrics(phase string) *phaseMetrics {
	return &phaseMetrics{seconds: mPhaseSec.With(phase), instr: mPhaseInstr.With(phase)}
}
