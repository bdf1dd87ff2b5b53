package fft

import (
	"math"
	"math/cmplx"
	"sync"
)

// bluestein implements the chirp-z transform for arbitrary lengths,
// expressing a length-n DFT as a cyclic convolution of size m (the next
// power of two >= 2n-1) computed with radix-2 FFTs. It is the one place
// that keeps a kernel per direction: running Backward as Forward on
// swapped parts would swap the order of the inner forward/backward pair
// of the convolution, which moves bits.
type bluestein struct {
	n, m  int
	inner *Plan // power-of-two plan of length m
	// chirp[j] = exp(-iπ j²/n) for j in [0,n) (forward orientation).
	chirp []complex128
	// kernelFFT[s] is the FFT of the padded convolution kernel for
	// direction s (0 = Forward, 1 = Backward).
	kernelFFT [2][]complex128
	// scratch pools the length-m convolution buffer.
	scratch sync.Pool
}

func newBluestein(n int) *bluestein {
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	b := &bluestein{n: n, m: m, inner: NewPlan(m)}
	b.scratch.New = func() any {
		s := make([]complex128, m)
		return &s
	}
	b.chirp = make([]complex128, n)
	for j := 0; j < n; j++ {
		// j² mod 2n keeps the argument small and exact.
		jj := (j * j) % (2 * n)
		b.chirp[j] = cmplx.Exp(complex(0, -math.Pi*float64(jj)/float64(n)))
	}
	for si, sign := range []Sign{Forward, Backward} {
		kern := make([]complex128, m)
		for j := 0; j < n; j++ {
			c := b.dirChirp(j, sign)
			kern[j] = cmplx.Conj(c)
			if j > 0 {
				kern[m-j] = cmplx.Conj(c)
			}
		}
		b.inner.Transform(kern, Forward)
		b.kernelFFT[si] = kern
	}
	return b
}

// dirChirp returns exp(sign·(-iπ j²/n)): the forward chirp or its conjugate.
func (b *bluestein) dirChirp(j int, sign Sign) complex128 {
	if sign == Forward {
		return b.chirp[j]
	}
	return cmplx.Conj(b.chirp[j])
}

func (b *bluestein) transform(x []complex128, sign Sign) {
	si := 0
	if sign == Backward {
		si = 1
	}
	sp := b.scratch.Get().(*[]complex128)
	a := *sp
	for i := range a {
		a[i] = 0
	}
	for j := 0; j < b.n; j++ {
		a[j] = x[j] * b.dirChirp(j, sign)
	}
	b.inner.Transform(a, Forward)
	kern := b.kernelFFT[si]
	for i := range a {
		a[i] *= kern[i]
	}
	b.inner.Transform(a, Backward)
	scale := complex(1/float64(b.m), 0)
	for k := 0; k < b.n; k++ {
		x[k] = a[k] * scale * b.dirChirp(k, sign)
	}
	b.scratch.Put(sp)
}

func (b *bluestein) flops() float64 {
	return 3*b.inner.Flops() + 16*float64(b.n) + 8*float64(b.m)
}
