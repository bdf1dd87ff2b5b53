//go:build race

package par

// The race detector makes sync.Pool drop items at random to surface reuse
// races, so the zero-allocation pin cannot hold under -race.
const raceEnabled = true
