//go:build !race

package knl

const raceEnabled = false
