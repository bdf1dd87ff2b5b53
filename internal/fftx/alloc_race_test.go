//go:build race

package fftx

// Allocation counts are not part of the race detector's contract, so the
// allocation pin is skipped under -race, as in internal/knl.
const raceEnabled = true
