package fft

// Plan variants: the radix policy picks the butterfly family a plan is
// factorized into, the layout picks the data arrangement the batch drivers
// run their inner loops over. Both are per-shape decisions made once at
// plan-build time by PickRadix and PickLayout — nothing else selects a
// kernel, and Cache resolves them exactly once per shape (see Cache.Get).
// Within one plan the two layouts are bit-identical, so the layout (and
// with it the host-parallelism switch) moves wall clock only; the two
// radix families factorize differently and agree to rounding error.

// radix selects the butterfly family of a plan's factorization.
type radix int

const (
	// radixAuto resolves to the measured-best policy for the shape at
	// plan-build time (PickRadix).
	radixAuto radix = iota
	// radixMixed is the legacy mixed-radix factorization (radix-4
	// preference, then 2/3/5/7/11/13) — the bit-identical baseline.
	radixMixed
	// radix8 peels radix-8 stages first (then falls back to the mixed
	// factorization of the remainder): fewer combine passes and fewer
	// twiddle loads on lengths divisible by 8.
	radix8
)

// String names the policy for benchmarks and diagnostics.
func (r radix) String() string {
	switch r {
	case radixAuto:
		return "auto"
	case radixMixed:
		return "mixed"
	case radix8:
		return "radix8"
	}
	return "unknown"
}

// layout selects the data arrangement of a batch driver's inner loops.
type layout int

const (
	// layoutAoS keeps rows as interleaved complex128 (array of structs).
	layoutAoS layout = iota
	// layoutSoA runs the butterflies over separate re/im float64 planes
	// (struct of arrays), packing at the batch boundary. Bit-identical to
	// layoutAoS: the planar butterflies mirror the complex arithmetic
	// operation for operation.
	layoutSoA
)

// String names the layout for benchmarks and diagnostics.
func (l layout) String() string {
	if l == layoutSoA {
		return "soa"
	}
	return "aos"
}

// PickRadix is the per-shape radix policy radixAuto resolves to. Measured
// on this package's Batch_{AoS,SoA}_* benchmark matrix and gated by the
// kernel_batch workload of bench/, whose fft.ns_per_nlogn.* rows time
// every cell this policy can reach: radix-8 stages win on lengths
// divisible by 8 (fewer passes over the work buffer) — except on pure
// powers of two served by the planar batch path, where the radix-4 stages
// plus the fused final-stage unpack beat the three-pass planar radix-8
// butterfly.
func PickRadix(n int) radix {
	if n%8 != 0 {
		return radixMixed
	}
	if isPow2(n) && PickLayout(n) == layoutSoA {
		return radixMixed
	}
	return radix8
}

// soaMinPow2 is the smallest pure power of two the layout policy sends to
// the planar path. Below it the AoS radix-8/4 kernel is already L1-resident
// and the planar pack/unpack never amortizes (Batch_SoA_Radix8_64 runs at
// 0.73× the speed of Batch_AoS_Radix8_64, range 0.68–0.85 over five
// alternating rounds); at 128 and above the chunked planar stages win or
// tie the best AoS variant. kernel_batch times one shape on
// each side of the line (fft.ns_per_nlogn.p64 and .p4096).
const soaMinPow2 = 128

// PickLayout is the per-shape layout policy of the batch drivers: planar
// re/im for every shape the iterative kernel handles directly, except
// small pure powers of two (see soaMinPow2). Lengths with odd factors go
// planar, on a tie: with radix 3 and 5 specialized the two layouts are
// level there (AoS time over SoA time, median of five alternating rounds:
// Mixed_60 1.04, Mixed_486 1.02, Radix8_120 1.00, Mixed_75 0.88), and
// every one of those pairs spreads across 1 (0.87–1.37, 0.80–1.33,
// 0.89–1.18, 0.76–1.61).
// Bluestein lengths stay AoS: the chirp convolution runs on complex
// scratch.
func PickLayout(n int) layout {
	if _, ok := factorize(n, radixMixed); !ok {
		return layoutAoS
	}
	if isPow2(n) && n < soaMinPow2 {
		return layoutAoS
	}
	return layoutSoA
}

// isPow2 reports whether n is a power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// factorize factorizes n into the stage radices of the given policy,
// preferring radix 8 (radix8 policy only), then 4, then the small primes
// {2,3,5,7,11,13}. It reports false when a larger prime remains (the
// Bluestein fallback).
func factorize(n int, r radix) ([]int, bool) {
	var fs []int
	if r == radix8 {
		for n%8 == 0 {
			fs = append(fs, 8)
			n /= 8
		}
	}
	for n%4 == 0 {
		fs = append(fs, 4)
		n /= 4
	}
	for _, f := range []int{2, 3, 5, 7, 11, 13} {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n != 1 {
		return nil, false
	}
	if len(fs) == 0 {
		fs = []int{1}
	}
	return fs, true
}
