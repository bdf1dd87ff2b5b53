package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestRealForwardMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 6, 8, 10, 12, 16, 20, 24, 30, 48, 60, 120, 128} {
		p := NewRealPlan(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		cx := make([]complex128, n)
		for i := range x {
			cx[i] = complex(x[i], 0)
		}
		want := DFT(cx, Forward)
		got := p.Forward(x)
		if len(got) != n/2+1 {
			t.Fatalf("n=%d: spectrum length %d", n, len(got))
		}
		for k := 0; k <= n/2; k++ {
			if d := cmplx.Abs(got[k] - want[k]); d > 1e-9 {
				t.Fatalf("n=%d k=%d: %v vs %v (diff %g)", n, k, got[k], want[k], d)
			}
		}
		// DC and Nyquist must be purely real.
		if math.Abs(imag(got[0])) > 1e-12 || math.Abs(imag(got[n/2])) > 1e-12 {
			t.Fatalf("n=%d: DC/Nyquist not real: %v %v", n, got[0], got[n/2])
		}
	}
}

func TestRealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{2, 8, 30, 120, 202} {
		p := NewRealPlan(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		back := p.Backward(p.Forward(x))
		for i := range x {
			if d := math.Abs(back[i] - float64(n)*x[i]); d > 1e-9*float64(n) {
				t.Fatalf("n=%d i=%d: roundtrip %v vs %v", n, i, back[i], float64(n)*x[i])
			}
		}
	}
}

func TestRealPlanCostsHalf(t *testing.T) {
	full := NewPlan(128).Flops()
	half := NewRealPlan(128).Flops()
	if half > 0.75*full {
		t.Fatalf("real plan flops %g not substantially below complex %g", half, full)
	}
}

func TestRealPlanPanicsOnOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRealPlan(7)
}

// Property: Parseval for the real transform, accounting for the stored half
// spectrum (interior bins count twice).
func TestPropertyRealParseval(t *testing.T) {
	p := NewRealPlan(64)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 64)
		var sx float64
		for i := range x {
			x[i] = rng.NormFloat64()
			sx += x[i] * x[i]
		}
		spec := p.Forward(x)
		var sX float64
		for k, v := range spec {
			w := 2.0
			if k == 0 || k == 32 {
				w = 1.0
			}
			sX += w * (real(v)*real(v) + imag(v)*imag(v))
		}
		return math.Abs(sx-sX/64) < 1e-9*(1+sx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheReusesPlans(t *testing.T) {
	var c Cache
	a := c.Get(48)
	b := c.Get(48)
	if a != b {
		t.Fatal("cache returned distinct plans for the same length")
	}
	if c.Get(32) == a {
		t.Fatal("distinct lengths share a plan")
	}
	ra, rb := c.GetReal(48), c.GetReal(48)
	if ra != rb {
		t.Fatal("real cache returned distinct plans")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	var c Cache
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 2; n <= 64; n += 2 {
				p := c.Get(n)
				x := make([]complex128, n)
				x[0] = 1
				p.Transform(x, Forward)
			}
		}()
	}
	wg.Wait()
}
