package fft

import (
	"math/rand"
	"testing"
)

// Layout matrix: the batched stick transform (32 rows, one planar chunk)
// with the AoS reference loop vs the planar (SoA) chunk kernel, per radix
// family, each in both directions (fwd/bwd sub-benchmarks: Backward runs
// the forward kernels on swapped parts, swapping at the pack and unpack,
// so its boundary cost differs). It is PickLayout's evidence: the
// PickLayout/PickRadix policy constants were measured off this matrix (64
// is the pure-pow2 shape AoS keeps, 128 the pow2 shape the planar mixed
// path wins, 120 the 8·odd shape radix-8 wins, 60 and 486 = 2·3⁵ the
// radix-3/5-heavy shapes, 75 = 3·5² the shape whose final stage is radix
// 3: in place, then a copy-out, 4096 the large pow2 stick of kernel_batch).
// Re-measure it with
//
//	go test ./internal/fft -run '^$' -bench 'Batch_' -count 5
//
// and compare each Batch_AoS_*/Batch_SoA_* pair per direction.
func benchmarkBatchLayout(b *testing.B, n int, r radix, soa bool) {
	p := newPlanRadix(n, r)
	rows := soaChunkRows
	data := randVec(rand.New(rand.NewSource(11)), n*rows)
	for _, d := range []struct {
		name string
		sign Sign
	}{{"fwd", Forward}, {"bwd", Backward}} {
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(int64(16 * n * rows))
			for i := 0; i < b.N; i++ {
				if soa {
					p.transformRowsSoA(data, rows, d.sign)
				} else {
					p.TransformMany(data, rows, d.sign)
				}
			}
		})
	}
}

func BenchmarkBatch_AoS_Mixed_60(b *testing.B)   { benchmarkBatchLayout(b, 60, radixMixed, false) }
func BenchmarkBatch_SoA_Mixed_60(b *testing.B)   { benchmarkBatchLayout(b, 60, radixMixed, true) }
func BenchmarkBatch_AoS_Mixed_75(b *testing.B)   { benchmarkBatchLayout(b, 75, radixMixed, false) }
func BenchmarkBatch_SoA_Mixed_75(b *testing.B)   { benchmarkBatchLayout(b, 75, radixMixed, true) }
func BenchmarkBatch_AoS_Mixed_128(b *testing.B)  { benchmarkBatchLayout(b, 128, radixMixed, false) }
func BenchmarkBatch_SoA_Mixed_128(b *testing.B)  { benchmarkBatchLayout(b, 128, radixMixed, true) }
func BenchmarkBatch_AoS_Mixed_486(b *testing.B)  { benchmarkBatchLayout(b, 486, radixMixed, false) }
func BenchmarkBatch_SoA_Mixed_486(b *testing.B)  { benchmarkBatchLayout(b, 486, radixMixed, true) }
func BenchmarkBatch_AoS_Mixed_4096(b *testing.B) { benchmarkBatchLayout(b, 4096, radixMixed, false) }
func BenchmarkBatch_SoA_Mixed_4096(b *testing.B) { benchmarkBatchLayout(b, 4096, radixMixed, true) }
func BenchmarkBatch_AoS_Radix8_64(b *testing.B)  { benchmarkBatchLayout(b, 64, radix8, false) }
func BenchmarkBatch_SoA_Radix8_64(b *testing.B)  { benchmarkBatchLayout(b, 64, radix8, true) }
func BenchmarkBatch_AoS_Radix8_120(b *testing.B) { benchmarkBatchLayout(b, 120, radix8, false) }
func BenchmarkBatch_SoA_Radix8_120(b *testing.B) { benchmarkBatchLayout(b, 120, radix8, true) }
