package mpi

import "repro/internal/metrics"

// Live telemetry for the MPI layer, keyed by communicator; the op label is
// always "Alltoallv".
// Calls and bytes are counted once per collective instance (by the last
// arriver); sync and transfer seconds accumulate per non-Silent participant
// — the same attribution rule the trace uses, so a communication thread's
// hidden wait time never pollutes the compute-lane totals.
var (
	mCalls     = metrics.Default().CounterVec("fftx_mpi_calls_total", "collective instances completed", "comm", "op")
	mBytes     = metrics.Default().CounterVec("fftx_mpi_bytes_total", "bytes charged to the fabric model", "comm", "op")
	mSyncSec   = metrics.Default().CounterVec("fftx_mpi_sync_seconds_total", "virtual seconds waiting for participants", "comm", "op")
	mXferSec   = metrics.Default().CounterVec("fftx_mpi_transfer_seconds_total", "virtual seconds moving data", "comm", "op")
	mCallBytes = metrics.Default().HistogramVec("fftx_mpi_call_bytes", "bytes per collective instance",
		[]float64{1 << 6, 1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26}, "op")
)

// Per-phase compute telemetry: live IPC is instructions_total /
// (compute_seconds_total * core frequency). The ompss worker path feeds the
// same families (the registry deduplicates by name).
var (
	mPhaseSec   = metrics.Default().CounterVec("fftx_phase_compute_seconds_total", "virtual seconds of useful compute, by phase", "phase")
	mPhaseInstr = metrics.Default().CounterVec("fftx_phase_instructions_total", "instructions executed, by phase", "phase")
)

// phaseMetrics caches the handles of one compute phase.
type phaseMetrics struct {
	seconds, instr *metrics.Counter
}

func (w *World) phaseMetricsFor(phase string) *phaseMetrics {
	if w.phaseCache == nil {
		w.phaseCache = map[string]*phaseMetrics{}
	}
	m := w.phaseCache[phase]
	if m == nil {
		m = &phaseMetrics{seconds: mPhaseSec.With(phase), instr: mPhaseInstr.With(phase)}
		w.phaseCache[phase] = m
	}
	return m
}

// commMetrics caches the resolved series handles of one communicator so
// the per-call hot path never touches the registry's label maps.
type commMetrics struct {
	calls, bytes, sync, xfer *metrics.Counter
	callBytes                *metrics.Histogram
}

// metricsFor returns the cached handles for a communicator. The engine runs
// one process at a time, so the map needs no locking.
func (w *World) metricsFor(comm string) *commMetrics {
	if w.commCache == nil {
		w.commCache = map[string]*commMetrics{}
	}
	m := w.commCache[comm]
	if m == nil {
		m = &commMetrics{
			calls:     mCalls.With(comm, opName),
			bytes:     mBytes.With(comm, opName),
			sync:      mSyncSec.With(comm, opName),
			xfer:      mXferSec.With(comm, opName),
			callBytes: mCallBytes.With(opName),
		}
		w.commCache[comm] = m
	}
	return m
}
