package fft

// Plan variants: the radix policy picks the butterfly family a plan is
// factorized into. It is a per-shape decision made once at plan-build time
// by PickRadix — nothing else selects a kernel, and Cache resolves it
// exactly once per shape (see Cache.Get). The two radix families
// factorize differently and agree to rounding error.

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

// PickRadix is the per-shape radix policy radixAuto resolves to. Measured
// on this package's Batch_* benchmarks and gated by the kernel_batch
// workload of bench/, whose fft.ns_per_nlogn.* rows time every cell this
// policy can reach: radix-8 stages win on lengths divisible by 8 (fewer
// passes over the work buffer), except on the large powers of two of
// mixedMinPow2.
func PickRadix(n int) radix {
	if n%8 != 0 || isPow2(n) && n >= mixedMinPow2 {
		return radixMixed
	}
	return radix8
}

// mixedMinPow2 is the smallest power of two PickRadix factorizes mixed
// (radix 4, then 2) instead of radix 8. From 128 up the mixed plan is the
// faster one: a 32-row Batch_Mixed_* took 0.93–0.96 of the Batch_Radix8_*
// time at 128 and 4096, both directions, median of five alternating
// rounds. The line also keeps every radixAuto plan's factorization, and
// so its output bits, where testdata/transform_bits.txt pins them.
// kernel_batch times one shape on each side of it (fft.ns_per_nlogn.p64
// and .p4096).
const mixedMinPow2 = 128

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
