package fftx

import (
	"math"
	"testing"

	"repro/internal/metrics"
)

// overheadConfig is the quick-suite-sized workload used to measure the cost
// of the always-on telemetry: small enough for CI, large enough that a run
// passes through every instrumented layer (vtime, mpi, ompss, fftx).
func overheadConfig() Config {
	return Config{
		Ecut: 20, Alat: 12, NB: 16, Ranks: 4, NTG: 2,
		Engine: EngineTaskIter, Mode: ModeCost,
	}
}

// BenchmarkRunTelemetryOn and BenchmarkRunTelemetryOff are the benchmark
// pair behind `make overhead-smoke`:
//
//	go test ./internal/fftx -run xx -bench 'RunTelemetry' -benchtime 5x
//
// Compare ns/op; the On/Off ratio is the instrumentation overhead.
func BenchmarkRunTelemetryOn(b *testing.B) {
	cfg := overheadConfig()
	metrics.SetEnabled(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTelemetryOff(b *testing.B) {
	cfg := overheadConfig()
	metrics.SetEnabled(false)
	defer metrics.SetEnabled(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTelemetryOverheadSmoke counts what the always-on telemetry costs a
// run in allocations: none. Every metric handle is resolved before the hot
// paths, which then pay an atomic add per event, so a cost-mode Run
// allocates exactly as much with metrics enabled as disabled. A count, not
// a wall-clock ratio, so a loaded host cannot fail it; the time overhead is
// the RunTelemetry benchmark pair's to show. The runtime adds a couple of
// allocations to some runs (goroutine and stack reuse), never removes any,
// so each side is the fewest over several single runs.
func TestTelemetryOverheadSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := overheadConfig()
	fewest := func(enabled bool) float64 {
		metrics.SetEnabled(enabled)
		best := math.Inf(1)
		for i := 0; i < 10; i++ {
			best = math.Min(best, testing.AllocsPerRun(1, func() {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return best
	}
	defer metrics.SetEnabled(true)
	off, on := fewest(false), fewest(true)
	t.Logf("allocations per run: telemetry on %.0f, off %.0f", on, off)
	if on > off {
		t.Fatalf("telemetry adds %.0f allocations per run (on %.0f, off %.0f), want none", on-off, on, off)
	}
}
