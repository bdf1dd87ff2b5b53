package fft

import (
	"math/rand"
	"testing"
)

// Radix matrix: the batched stick transform (32 rows, one fan-out grain,
// run serially through TransformMany) per radix family and length, each
// in both directions (fwd/bwd sub-benchmarks: Backward runs the forward
// kernels on swapped parts, swapping at the gather and the copy-out, so
// its boundary cost differs). 64 is the pure power of two PickRadix gives
// radix 8, 128 and 4096 the ones it keeps mixed (mixedMinPow2, timed in
// both families), 120 the 8·odd shape radix 8 wins, 60 and 486 = 2·3⁵ the
// radix-3/5-heavy shapes, 75 = 3·5² the shape whose final stage is radix
// 3. Every pass starts from the same input, so the timed data stays
// finite. Re-measure it with
//
//	go test ./internal/fft -run '^$' -bench 'Batch_' -count 5
func benchmarkBatch(b *testing.B, n int, r radix) {
	p := newPlanRadix(n, r)
	rows := grainBatchSticks
	src := randVec(rand.New(rand.NewSource(11)), n*rows)
	data := make([]complex128, len(src))
	for _, d := range []struct {
		name string
		sign Sign
	}{{"fwd", Forward}, {"bwd", Backward}} {
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(int64(16 * n * rows))
			for i := 0; i < b.N; i++ {
				copy(data, src)
				p.TransformMany(data, rows, d.sign)
			}
		})
	}
}

func BenchmarkBatch_Mixed_60(b *testing.B)    { benchmarkBatch(b, 60, radixMixed) }
func BenchmarkBatch_Mixed_75(b *testing.B)    { benchmarkBatch(b, 75, radixMixed) }
func BenchmarkBatch_Mixed_128(b *testing.B)   { benchmarkBatch(b, 128, radixMixed) }
func BenchmarkBatch_Mixed_486(b *testing.B)   { benchmarkBatch(b, 486, radixMixed) }
func BenchmarkBatch_Mixed_4096(b *testing.B)  { benchmarkBatch(b, 4096, radixMixed) }
func BenchmarkBatch_Radix8_64(b *testing.B)   { benchmarkBatch(b, 64, radix8) }
func BenchmarkBatch_Radix8_120(b *testing.B)  { benchmarkBatch(b, 120, radix8) }
func BenchmarkBatch_Radix8_128(b *testing.B)  { benchmarkBatch(b, 128, radix8) }
func BenchmarkBatch_Radix8_4096(b *testing.B) { benchmarkBatch(b, 4096, radix8) }
