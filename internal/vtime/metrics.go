package vtime

import (
	"repro/internal/memo"
	"repro/internal/metrics"
)

// Live telemetry for the engine. Families live in the process-wide default
// registry so every engine in the process feeds the same /metrics view.
// Per-proc series are labeled by role — the proc name with digits stripped
// ("rank7" -> "rank", "commthread.r3.1" -> "commthread.r.") — which keeps
// label cardinality bounded regardless of rank count.
var (
	mSteps         = metrics.Default().Counter("fftx_vtime_steps_total", "engine dispatch steps executed")
	mJobsCompleted = metrics.Default().Counter("fftx_vtime_jobs_completed_total", "compute jobs driven to completion")
	mProcsSpawned  = metrics.Default().CounterVec("fftx_vtime_procs_spawned_total", "processes created, by role", "proc")
	mBlockSeconds  = metrics.Default().CounterVec("fftx_vtime_block_seconds_total", "virtual seconds spent blocked, by role", "proc")
	mRunSeconds    = metrics.Default().CounterVec("fftx_vtime_compute_seconds_total", "virtual seconds spent in compute jobs, by role", "proc")
	mProcsBlocked  = metrics.Default().Gauge("fftx_vtime_procs_blocked", "processes currently blocked across live engines")
	mBlockedFrac   = metrics.Default().Gauge("fftx_vtime_blocked_fraction_max", "high-water blocked/alive fraction (1.0 means deadlock)")
	mDeadlocks     = metrics.Default().Counter("fftx_vtime_deadlocks_total", "deadlocks detected")
)

// roleMetrics are the per-role series of a process.
type roleMetrics struct {
	spawned, block, run *metrics.Counter
}

// roles resolves each role's series once per process, for every engine.
var roles memo.Map[string, *roleMetrics]

// roleMetricsOf returns the series of a proc name's role: the name with its
// digits dropped. The role is assembled in a stack buffer and looked up
// without allocating; only the first proc of a role builds its entry.
func roleMetricsOf(name string) *roleMetrics {
	var buf [64]byte
	role := buf[:0]
	for i := 0; i < len(name); i++ {
		if c := name[i]; c < '0' || c > '9' {
			role = append(role, c)
		}
	}
	if rm, ok := roles.Snapshot()[string(role)]; ok {
		return rm
	}
	return roles.Get(string(role), func(role string) *roleMetrics {
		return &roleMetrics{
			spawned: mProcsSpawned.With(role),
			block:   mBlockSeconds.With(role),
			run:     mRunSeconds.With(role),
		}
	})
}
