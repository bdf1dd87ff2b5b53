// Package repro is a from-scratch Go reproduction of "Performance Analysis
// and Optimization of the FFTXlib on the Intel Knights Landing
// Architecture" (Wagner et al., ICPP Workshops 2017, DOI
// 10.1109/ICPPW.2017.44).
//
// It contains the FFTXlib miniapp kernel (the parallel 3-D FFT of Quantum
// ESPRESSO with two-layer task-group communication) in three execution
// engines — the static original and the paper's two OmpSs task-based
// optimizations — together with every substrate they need: an in-process
// MPI library, a mixed-radix FFT library, the plane-wave G-vector/stick
// machinery, an OmpSs-like task runtime with data dependencies, a
// discrete-event KNL node model, Extrae-style tracing and the POP
// efficiency analysis. See README.md, DESIGN.md and EXPERIMENTS.md.
//
// Each table and figure of the paper's evaluation is regenerated by
// cmd/fftxbench; the repository's benchmark is the nested module in bench/.
package repro
