package fft_test

import (
	"fmt"
	"math"

	"repro/internal/fft"
)

func ExamplePlan_Transform() {
	// Transform a pure tone: a length-8 exponential at frequency 2 lands
	// entirely in bin 2.
	x := make([]complex128, 8)
	for j := range x {
		ang := 2 * math.Pi * 2 * float64(j) / 8
		x[j] = complex(math.Cos(ang), math.Sin(ang))
	}
	fft.NewPlan(8).Transform(x, fft.Forward)
	for k, v := range x {
		if math.Hypot(real(v), imag(v)) > 1e-9 {
			fmt.Printf("bin %d: %.0f\n", k, real(v))
		}
	}
	// Output:
	// bin 2: 8
}

func ExampleGoodSize() {
	// Quantum ESPRESSO grids use 5-smooth sizes.
	fmt.Println(fft.GoodSize(97), fft.GoodSize(113), fft.GoodSize(121))
	// Output:
	// 100 120 125
}

func ExamplePlan3D_Transform() {
	// Round trip: Backward(Forward(x)) = N·x.
	p := fft.NewPlan3D(4, 4, 4)
	x := make([]complex128, 64)
	x[13] = 1
	p.Transform(x, fft.Forward)
	p.Transform(x, fft.Backward)
	fmt.Printf("%.0f\n", real(x[13]))
	// Output:
	// 64
}
