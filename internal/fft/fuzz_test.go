package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Fuzz targets double as regression suites: `go test` runs the seed corpus;
// `go test -fuzz=FuzzRoundTrip ./internal/fft` explores further.

func FuzzRoundTrip(f *testing.F) {
	f.Add(8, int64(1))
	f.Add(12, int64(2))
	f.Add(97, int64(3))
	f.Add(120, int64(4))
	f.Add(1, int64(5))
	f.Fuzz(func(t *testing.T, n int, seed int64) {
		if n < 1 || n > 512 {
			t.Skip()
		}
		p := NewPlan(n)
		x := make([]complex128, n)
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(int64(s>>11))/float64(1<<52) - 1
		}
		for i := range x {
			x[i] = complex(next(), next())
		}
		y := append([]complex128(nil), x...)
		p.Transform(y, Forward)
		p.Transform(y, Backward)
		Scale(y, 1/float64(n))
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-8*(1+cmplx.Abs(x[i]))*float64(n) {
				t.Fatalf("n=%d: roundtrip mismatch at %d: %v vs %v", n, i, y[i], x[i])
			}
		}
	})
}

// FuzzBatchMatchesReference is the differential kernel fuzz. For any
// length, row count and direction, the policy plan's TransformBatch (the
// plan comes from the cache, as every product caller gets it; host
// parallelism is on by default, so batches above one grain fan out, with
// partial tail chunks) must equal the same plan's serial TransformMany bit
// for bit (sign of zero included; every third input cell is zero): the
// fan-out never moves a bit. Across factorizations the contract is
// rounding tolerance: against the mixed-radix baseline for every length,
// and against the naive DFT up to 256.
func FuzzBatchMatchesReference(f *testing.F) {
	f.Add(4, 1, false)    // mixed, one row
	f.Add(64, 40, true)   // radix-8, fans out
	f.Add(128, 33, false) // mixed power of two, one full grain plus one row
	f.Add(120, 70, true)  // radix-8 with 3 and 5, fans out
	f.Add(486, 5, false)  // radix-3 stages, below one grain
	f.Add(97, 3, true)    // Bluestein
	f.Add(1000, 2, false) // radix-8 with generic tail
	f.Add(3, 40, true)    // one radix-3 stage
	f.Add(25, 7, false)   // two radix-5 stages
	f.Add(75, 33, true)   // radix-3 final after two radix-5 stages
	f.Add(135, 3, false)  // radix-3 as a middle stage
	f.Add(225, 65, true)  // radix-3 middle and final, fans out
	f.Add(250, 1, true)   // radix-5 as a middle stage
	f.Add(375, 9, false)  // radix-5 middle, radix-3 final
	f.Add(1001, 4, true)  // the dense generic stage: 7·11·13
	f.Add(128, 33, true)  // mixed power of two backward: swapped gather and copy-out
	f.Add(120, 70, false) // radix-8 with 3 and 5 forward, fans out
	f.Fuzz(func(t *testing.T, n, rows int, backward bool) {
		if n < 1 || n > 1024 || rows < 1 || rows > 80 {
			t.Skip()
		}
		sign := Forward
		if backward {
			sign = Backward
		}
		x := randVecZeros(rand.New(rand.NewSource(int64(n)<<8|int64(rows))), n*rows)
		p := DefaultCache.Get(n)
		got := append([]complex128(nil), x...)
		p.TransformBatch(got, rows, sign)
		same := append([]complex128(nil), x...)
		p.TransformMany(same, rows, sign)
		if i := firstBitDiff(got, same); i >= 0 {
			t.Fatalf("n=%d rows=%d sign=%d (%v) i=%d: batch %v != serial %v",
				n, rows, sign, p.radix, i, got[i], same[i])
		}
		tol := 1e-9 * float64(n)
		base := append([]complex128(nil), x...)
		NewPlan(n).TransformMany(base, rows, sign)
		if d := maxDiff(got, base); d > tol {
			t.Fatalf("n=%d rows=%d sign=%d: %g from the mixed-radix baseline", n, rows, sign, d)
		}
		if n <= 256 {
			last := (rows - 1) * n
			if d := maxDiff(got[last:], DFT(x[last:], sign)); d > tol {
				t.Fatalf("n=%d rows=%d sign=%d: %g from the naive DFT", n, rows, sign, d)
			}
		}
	})
}

func FuzzGoodSize(f *testing.F) {
	f.Add(1)
	f.Add(97)
	f.Add(4096)
	f.Fuzz(func(t *testing.T, n int) {
		if n < 1 || n > 1<<16 {
			t.Skip()
		}
		m := GoodSize(n)
		if m < n {
			t.Fatalf("GoodSize(%d) = %d < n", n, m)
		}
		k := m
		for _, fac := range []int{2, 3, 5} {
			for k%fac == 0 {
				k /= fac
			}
		}
		if k != 1 {
			t.Fatalf("GoodSize(%d) = %d not 5-smooth", n, m)
		}
		// Minimality: no 5-smooth number in [n, m).
		for c := n; c < m; c++ {
			j := c
			for _, fac := range []int{2, 3, 5} {
				for j%fac == 0 {
					j /= fac
				}
			}
			if j == 1 {
				t.Fatalf("GoodSize(%d) = %d skipped smaller smooth %d", n, m, c)
			}
		}
		_ = math.MaxInt
	})
}
