package fftx

import (
	"math/cmplx"
	"testing"

	"repro/internal/fft"
	"repro/internal/pw"
)

// gammaReference applies the operator serially to the gamma-mode bands:
// expand each half-sphere band pair to the full sphere, run the full 3-D
// transform pipeline, reduce back.
func gammaReference(t *testing.T, cfg Config) [][]complex128 {
	t.Helper()
	half := pw.NewSphereGamma(cfg.Ecut, cfg.Alat)
	full := pw.NewSphere(cfg.Ecut, cfg.Alat)
	bands := pw.WavefunctionBandsGamma(half, cfg.NB)
	pot := pw.Potential(full.Grid)
	plan := fft.NewPlan3D(full.Grid.Nx, full.Grid.Ny, full.Grid.Nz)
	box := make([]complex128, full.Grid.Size())
	out := make([][]complex128, cfg.NB)
	for b, c := range bands {
		fullC := pw.ExpandGammaCoeffs(half, full, c)
		full.FillBox(box, fullC)
		plan.Transform(box, fft.Backward)
		for i := range box {
			box[i] *= complex(pot[i], 0)
		}
		plan.Transform(box, fft.Forward)
		res := make([]complex128, full.NG())
		full.ExtractBox(res, box)
		for i := range res {
			res[i] *= complex(1/float64(full.Grid.Size()), 0)
		}
		out[b] = pw.ReduceGammaCoeffs(half, full, res)
	}
	return out
}

func gammaConfig(engine Engine, ranks, ntg, nb int) Config {
	cfg := testConfig(engine, ranks, ntg, nb)
	cfg.Gamma = true
	return cfg
}

// Gamma-mode engines must reproduce the full-sphere serial reference: the
// half-sphere representation with band pairing is mathematically identical.
func TestGammaEnginesMatchReference(t *testing.T) {
	ref := gammaReference(t, Config{Ecut: testEcut, Alat: testAlat, NB: 8})
	cases := []Config{
		gammaConfig(EngineOriginal, 1, 1, 8),
		gammaConfig(EngineOriginal, 1, 4, 8),
		gammaConfig(EngineOriginal, 2, 2, 8),
		gammaConfig(EngineOriginal, 3, 2, 8),
		gammaConfig(EngineOriginal, 2, 4, 8),
		gammaConfig(EngineTaskIter, 1, 1, 8),
		gammaConfig(EngineTaskIter, 1, 4, 8),
		gammaConfig(EngineTaskIter, 2, 2, 8),
		gammaConfig(EngineTaskIter, 3, 2, 8),
		gammaConfig(EngineTaskIter, 2, 4, 8),
	}
	for _, cfg := range cases {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v %dx%d gamma: %v", cfg.Engine, cfg.Ranks, cfg.NTG, err)
		}
		if d := maxBandDiff(t, res.Bands, ref); d > 1e-10 {
			t.Errorf("%v %dx%d gamma: max deviation %g", cfg.Engine, cfg.Ranks, cfg.NTG, d)
		}
	}
}

// Gamma mode halves the FFT count, so the simulated runtime must drop
// substantially versus the standard mode at the same configuration (the
// sphere is half, so per-job compute matches a standard single band's).
func TestGammaHalvesRuntime(t *testing.T) {
	std := Config{Ecut: 20, Alat: 12, NB: 32, Ranks: 4, NTG: 4,
		Engine: EngineTaskIter, Mode: ModeCost}
	gam := std
	gam.Gamma = true
	rs, err := Run(std)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := Run(gam)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rg.Runtime / rs.Runtime
	if ratio > 0.75 || ratio < 0.35 {
		t.Fatalf("gamma/standard runtime ratio %.3f, expected ~0.5", ratio)
	}
}

func TestGammaValidation(t *testing.T) {
	bad := []Config{
		// odd band count
		{Ecut: testEcut, Alat: testAlat, NB: 7, Ranks: 1, NTG: 1, Gamma: true, Engine: EngineOriginal},
		// unsupported engine
		{Ecut: testEcut, Alat: testAlat, NB: 8, Ranks: 1, NTG: 2, Gamma: true, Engine: EngineTaskCombined},
		// NB/2 not divisible by NTG
		{Ecut: testEcut, Alat: testAlat, NB: 8, Ranks: 1, NTG: 8, Gamma: true, Engine: EngineOriginal},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGammaDeterministic(t *testing.T) {
	cfg := gammaConfig(EngineTaskIter, 2, 2, 4)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime {
		t.Fatalf("nondeterministic: %v vs %v", a.Runtime, b.Runtime)
	}
	for bd := range a.Bands {
		for i := range a.Bands[bd] {
			if a.Bands[bd][i] != b.Bands[bd][i] {
				t.Fatalf("band data differs at %d/%d", bd, i)
			}
		}
	}
}

// The gamma engines must agree with each other bit for bit.
func TestGammaEnginesAgree(t *testing.T) {
	a, err := Run(gammaConfig(EngineOriginal, 2, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(gammaConfig(EngineTaskIter, 2, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxBandDiff(t, a.Bands, b.Bands); d > 1e-12 {
		t.Fatalf("engines disagree by %g", d)
	}
}

// Hermiticity invariant on the output of the distributed kernel: V(r) is
// real, so <psi_i|V|psi_j> = conj(<psi_j|V|psi_i>). The full sphere uses the
// complex inner product; gamma mode the half-sphere one, 2·Re(sum) minus the
// double-counted G=0 term, which is real.
func TestOutputHermitian(t *testing.T) {
	fullDot := func(_ *pw.Sphere, a, b []complex128) complex128 {
		var s complex128
		for i := range a {
			s += cmplx.Conj(a[i]) * b[i]
		}
		return s
	}
	gammaDot := func(sp *pw.Sphere, a, b []complex128) complex128 {
		var s float64
		for i := range a {
			s += 2 * real(cmplx.Conj(a[i])*b[i])
		}
		for i, g := range sp.G {
			if g.I == 0 && g.J == 0 && g.K == 0 {
				s -= real(cmplx.Conj(a[i]) * b[i])
				break
			}
		}
		return complex(s, 0)
	}
	cases := []struct {
		name  string
		cfg   Config
		bands func(*pw.Sphere, int) [][]complex128
		dot   func(sp *pw.Sphere, a, b []complex128) complex128
	}{
		{"gamma", gammaConfig(EngineTaskIter, 2, 2, 4), pw.WavefunctionBandsGamma, gammaDot},
		{"full-sphere", testConfig(EngineTaskIter, 2, 2, 8), pw.WavefunctionBands, fullDot},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			in := tc.bands(res.Sphere, tc.cfg.NB)
			for i := 0; i < tc.cfg.NB; i++ {
				for j := i; j < tc.cfg.NB; j++ {
					mij := tc.dot(res.Sphere, in[i], res.Bands[j])
					mji := tc.dot(res.Sphere, in[j], res.Bands[i])
					if d := cmplx.Abs(mij - cmplx.Conj(mji)); d > 1e-10 {
						t.Fatalf("<%d|V|%d> asymmetry %g", i, j, d)
					}
				}
			}
		})
	}
}
