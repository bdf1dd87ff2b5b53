package mpi

import (
	"repro/internal/knl"
	"repro/internal/metrics"
)

// Live telemetry for the MPI layer, keyed by (communicator, operation).
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

// commOpMetrics caches the resolved series handles of one (comm, op) pair
// so the per-call hot path never touches the registry's label maps.
type commOpMetrics struct {
	calls, bytes, sync, xfer *metrics.Counter
	callBytes                *metrics.Histogram
}

type commOpKey struct {
	comm string
	op   Op
}

// metricsFor returns the cached handles for a (comm, op) pair. The engine
// runs one process at a time, so the map needs no locking.
func (w *World) metricsFor(comm string, op Op) *commOpMetrics {
	if w.commOpCache == nil {
		w.commOpCache = map[commOpKey]*commOpMetrics{}
	}
	k := commOpKey{comm, op}
	m := w.commOpCache[k]
	if m == nil {
		name := op.Name()
		m = &commOpMetrics{
			calls:     mCalls.With(comm, name),
			bytes:     mBytes.With(comm, name),
			sync:      mSyncSec.With(comm, name),
			xfer:      mXferSec.With(comm, name),
			callBytes: mCallBytes.With(name),
		}
		w.commOpCache[k] = m
	}
	return m
}

// meter prices a collective on the node and observes the byte volume it
// charges. The recorded volume is the aggregate the node moves:
// k*bytesPerRank for an alltoall, the payload size for bcast/reduce.
type meter struct {
	node  *knl.Node
	bytes float64
}

func (m *meter) AlltoallTime(k int, bytesPerRank float64, commLanes int) float64 {
	m.bytes += bytesPerRank * float64(k)
	return m.node.AlltoallTime(k, bytesPerRank, commLanes)
}

func (m *meter) BcastTime(k int, bytes float64, commLanes int) float64 {
	m.bytes += bytes
	return m.node.BcastTime(k, bytes, commLanes)
}

func (m *meter) ReduceTime(k int, bytes float64, commLanes int) float64 {
	m.bytes += bytes
	return m.node.ReduceTime(k, bytes, commLanes)
}
