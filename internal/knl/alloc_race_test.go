//go:build race

package knl

// Allocation counts are not part of the race detector's contract, so the
// allocation pin is skipped under -race, as in internal/fft.
const raceEnabled = true
