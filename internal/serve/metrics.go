package serve

import (
	"repro/internal/metrics"
)

// fftxd_* metric families, registered on the default registry so the
// standard telemetry mux (/metrics) exposes them. Wall-clock latencies use buckets from 10 µs to 10 s.
var (
	serveBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

	mReqTotal = metrics.Default().CounterVec("fftxd_requests_total",
		"requests finished, by endpoint and HTTP status code", "endpoint", "code")
	// mFFTOK is the series nearly every /fft request ends on, held so that
	// its labels are not joined anew per request.
	mFFTOK      = mReqTotal.With("fft", "200")
	mReqSeconds = metrics.Default().HistogramVec("fftxd_request_seconds",
		"wall-clock request latency (admission to reply), by endpoint", serveBuckets, "endpoint")
	mRejects = metrics.Default().CounterVec("fftxd_rejects_total",
		"admission rejections, by reason (full|deadline|draining)", "reason")
	mQueueDepth = metrics.Default().Gauge("fftxd_queue_depth",
		"requests admitted but not yet executing")
	mInflight = metrics.Default().Gauge("fftxd_inflight_requests",
		"requests currently executing on the worker pool")
	mShapeReqs = metrics.Default().CounterVec("fftxd_shape_requests_total",
		"transform requests, by shape key", "shape")
	mBatches = metrics.Default().CounterVec("fftxd_batches_total",
		"executed batches, by shape key", "shape")
	mBatchRows = metrics.Default().HistogramVec("fftxd_batch_rows",
		"transforms coalesced per executed batch, by shape key",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}, "shape")
	mExecSeconds = metrics.Default().HistogramVec("fftxd_batch_exec_seconds",
		"wall-clock batch execution time, by shape key", serveBuckets, "shape")
	mPlanBuilds = metrics.Default().Gauge("fftxd_plan_builds",
		"cumulative plan constructions of the server's shared plan cache")
	mDrainState = metrics.Default().Gauge("fftxd_draining",
		"1 while the server is draining, else 0")
	mTraced = metrics.Default().CounterVec("fftxd_traced_requests_total",
		"requests that recorded a span tree, by trace-ID source (client|sampled)", "source")
)
