//go:build !race

package fftx

const raceEnabled = false
