package fftx

import (
	"repro/internal/metrics"
)

// Run-level telemetry. The per-phase compute counters live in the mpi and
// ompss layers (fftx_phase_*); together with fftx_core_frequency_hz they
// give live IPC: instructions / (compute seconds * frequency).
var (
	mRuns         = metrics.Default().CounterVec("fftx_runs_total", "kernel runs started, by engine", "engine")
	mFreq         = metrics.Default().Gauge("fftx_core_frequency_hz", "core frequency of the simulated node model")
	mAutoSelected = metrics.Default().CounterVec("fftx_auto_selected_total", "engines chosen by EngineAuto cost-model selection", "engine")
)
