package mpi

import (
	"repro/internal/memo"
	"repro/internal/metrics"
)

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

// phaseHandles and commHandles resolve each phase's and communicator's
// handles once per process, for every world of every engine.
var (
	phaseHandles memo.Map[string, *phaseMetrics]
	commHandles  memo.Map[string, *commMetrics]
)

func newPhaseMetrics(phase string) *phaseMetrics {
	return &phaseMetrics{seconds: mPhaseSec.With(phase), instr: mPhaseInstr.With(phase)}
}

// commMetrics caches the resolved series handles of one communicator so
// the per-call hot path never touches the registry's label maps.
type commMetrics struct {
	calls, bytes, sync, xfer *metrics.Counter
	callBytes                *metrics.Histogram
}

func newCommMetrics(comm string) *commMetrics {
	return &commMetrics{
		calls:     mCalls.With(comm, opName),
		bytes:     mBytes.With(comm, opName),
		sync:      mSyncSec.With(comm, opName),
		xfer:      mXferSec.With(comm, opName),
		callBytes: mCallBytes.With(opName),
	}
}
