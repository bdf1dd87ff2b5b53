package fft

import (
	"math/rand"
	"testing"
)

// Benchmark pairs comparing the iterative table-driven kernel against the
// recursive baseline it replaced (kept in recursive_test.go). The
// Iterative/Recursive name pairs are what scripts/bench-json.sh turns into
// the kernel_speedups section of BENCH_fft.json.

func benchVec(n int) []complex128 {
	return randVec(rand.New(rand.NewSource(11)), n)
}

func benchmarkKernelIterative(b *testing.B, n int) {
	p := NewPlan(n)
	x := benchVec(n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(x, Forward)
	}
}

func benchmarkKernelRecursive(b *testing.B, n int) {
	p := newRecursivePlan(n)
	x := benchVec(n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.transform(x, Forward)
	}
}

// 120 = 4·2·3·5 is the QE-style mixed-radix length; 128 is the pure
// radix-4/2 fast path; 486 = 2·3^5 stresses the generic odd-radix stage.
func BenchmarkKernel_Iterative_120(b *testing.B) { benchmarkKernelIterative(b, 120) }
func BenchmarkKernel_Recursive_120(b *testing.B) { benchmarkKernelRecursive(b, 120) }
func BenchmarkKernel_Iterative_128(b *testing.B) { benchmarkKernelIterative(b, 128) }
func BenchmarkKernel_Recursive_128(b *testing.B) { benchmarkKernelRecursive(b, 128) }
func BenchmarkKernel_Iterative_486(b *testing.B) { benchmarkKernelIterative(b, 486) }
func BenchmarkKernel_Recursive_486(b *testing.B) { benchmarkKernelRecursive(b, 486) }

func BenchmarkPlan2D_Blocked_60x60(b *testing.B) {
	p := NewPlan2D(60, 60)
	plane := benchVec(60 * 60)
	b.SetBytes(int64(16 * len(plane)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(plane, Forward)
	}
}

func BenchmarkPlan3D_20x18x24(b *testing.B) {
	p := NewPlan3D(20, 18, 24)
	box := benchVec(20 * 18 * 24)
	b.SetBytes(int64(16 * len(box)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(box, Backward)
	}
}

// Layout matrix: the batched stick transform (32 rows, one planar chunk)
// with the AoS reference loop vs the planar (SoA) chunk kernel, per radix
// family. The Batch_AoS_*/Batch_SoA_* name pairs become the layouts
// section of BENCH_fft.json; the PickLayout/PickRadix policy constants
// were measured off this matrix (64 is the pure-pow2 shape AoS keeps, 128
// the pow2 shape the planar mixed path wins, 120 the 8·odd shape radix-8
// wins, 486 the generic-stage shape with the largest planar gain).
func benchmarkBatchLayout(b *testing.B, n int, r radix, soa bool) {
	p := newPlanRadix(n, r)
	rows := soaChunkRows
	data := randVec(rand.New(rand.NewSource(11)), n*rows)
	b.SetBytes(int64(16 * n * rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if soa {
			p.transformRowsSoA(data, rows, Forward)
		} else {
			p.TransformMany(data, rows, Forward)
		}
	}
}

func BenchmarkBatch_AoS_Mixed_60(b *testing.B)   { benchmarkBatchLayout(b, 60, radixMixed, false) }
func BenchmarkBatch_SoA_Mixed_60(b *testing.B)   { benchmarkBatchLayout(b, 60, radixMixed, true) }
func BenchmarkBatch_AoS_Mixed_128(b *testing.B)  { benchmarkBatchLayout(b, 128, radixMixed, false) }
func BenchmarkBatch_SoA_Mixed_128(b *testing.B)  { benchmarkBatchLayout(b, 128, radixMixed, true) }
func BenchmarkBatch_AoS_Mixed_486(b *testing.B)  { benchmarkBatchLayout(b, 486, radixMixed, false) }
func BenchmarkBatch_SoA_Mixed_486(b *testing.B)  { benchmarkBatchLayout(b, 486, radixMixed, true) }
func BenchmarkBatch_AoS_Radix8_64(b *testing.B)  { benchmarkBatchLayout(b, 64, radix8, false) }
func BenchmarkBatch_SoA_Radix8_64(b *testing.B)  { benchmarkBatchLayout(b, 64, radix8, true) }
func BenchmarkBatch_AoS_Radix8_120(b *testing.B) { benchmarkBatchLayout(b, 120, radix8, false) }
func BenchmarkBatch_SoA_Radix8_120(b *testing.B) { benchmarkBatchLayout(b, 120, radix8, true) }
