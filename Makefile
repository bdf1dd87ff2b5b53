# Build/verify entry points. `make check` is the tier-1 gate: build, go vet,
# the repo's own fftxvet analyzer and a gofmt cleanliness check, then the
# test suite. CI runs the same targets.

GO ?= go

.PHONY: all build test check vet fmt race fuzz-smoke overhead-smoke serve-smoke introspect-smoke cluster-smoke engines-matrix experiments

all: check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails (non-zero exit) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# check is the tier-1 verification gate. fftxvet runs with the stale-
# suppression audit on: a //fftxvet:ignore that no longer suppresses
# anything fails the gate like a finding would. bench/ is a nested module
# that `./...` does not reach, so it is vetted and tested on its own: an
# API deletion in internal/ must not break the benchmark unseen.
check: build vet
	$(GO) run ./cmd/fftxvet -unused-ignores ./...
	$(MAKE) fmt
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# experiments regenerates EXPERIMENTS.md: the full paper-scale report.
# internal/core's TestExperimentsMatchReport fails when the committed file
# and the report differ.
experiments:
	$(GO) run ./cmd/fftxbench report > EXPERIMENTS.md

# race runs the internal packages under the race detector without test
# result caching. A simulated run is one loop on its caller's goroutine;
# this guards what runs beside it: concurrent runs sharing read-only
# geometry and plans, and the host-parallel pools and servers.
race:
	$(GO) test -race -count=1 ./internal/...

# fuzz-smoke runs a short bounded fuzz of the FFT round-trip property, of
# the batch kernels against their serial reference (bit-identical across
# layouts, rounding tolerance against the mixed-radix baseline and the naive
# DFT), of the fftxd binary request decoder (malformed input must error,
# never panic) and of its JSON request decoder against encoding/json (equal
# results on everything both accept, never a panic), of its float codec
# against strconv.ParseFloat and encoding/json (bit- and byte-identical in
# both directions, malformed tokens rejected alike), and of the node
# model's rates against their map-based reference (bit-identical on random
# lanes, classes and demands). Each package has several fuzz targets, so
# -fuzz must pick one.
fuzz-smoke:
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=10s -run='^$$' ./internal/fft
	$(GO) test -fuzz=FuzzBatchMatchesReference -fuzztime=10s -run='^$$' ./internal/fft
	$(GO) test -fuzz=FuzzRequestDecode -fuzztime=10s -run='^$$' ./internal/serve
	$(GO) test -fuzz=FuzzJSONRequestDecode -fuzztime=10s -run='^$$' ./internal/serve
	$(GO) test -fuzz=FuzzJSONFloat -fuzztime=10s -run='^$$' ./internal/serve
	$(GO) test -fuzz=FuzzRatesMatchesReference -fuzztime=10s -run='^$$' ./internal/knl

# overhead-smoke measures the cost of the always-on telemetry: the
# enabled/disabled benchmark pair (time; design target <5%, see README
# "Observability") plus the smoke test that counts a cost-mode run's
# allocations with metrics on and off and fails if telemetry adds any, and
# TestRunAllocsPerBand, which pins the simulator's allocations per extra
# band (nothing per task, edge, node name or posted scatter).
# The serving side is counted too: TestHandleFFTAllocs and
# TestTracingOverheadSmoke serve the same request untraced and fully traced
# and pin the traced-request count, the span trees and the allocations per
# request of each. Tracing's timing is
# bench/'s bench.tracing_overhead_pct.
overhead-smoke:
	$(GO) test ./internal/fftx -run '^$$' -bench RunTelemetry -benchtime 5x
	$(GO) test ./internal/fftx -run 'TestTelemetryOverheadSmoke|TestRunAllocsPerBand' -count=1 -v
	$(GO) test ./internal/serve -run 'TestHandleFFTAllocs|TestTracingOverheadSmoke' -count=1 -v

# serve-smoke is the end-to-end check CI runs: fftxbench's telemetry
# endpoints, then the fftxd daemon (POST /fft, /healthz, fftxd_* metrics and
# a clean SIGTERM drain), each on an ephemeral port.
serve-smoke:
	./scripts/serve-smoke.sh

# introspect-smoke drives a traced fftxd load and asserts the observability
# surface end to end: trace-ID echo, /debug/fftx/requests span trees and
# fftxtrace -requests rendering.
introspect-smoke:
	./scripts/introspect-smoke.sh

# cluster-smoke stands up a router + two workers (one static peer, one
# dynamic -join), drives mixed JSON/binary load through the router, runs the
# kill-one-worker drill (zero failed requests) and checks the
# /debug/fftx/cluster topology and fftxd_cluster_* metrics surfaces.
cluster-smoke:
	./scripts/cluster-smoke.sh

# engines-matrix is the cross-engine smoke gate: the short-mode equivalence
# matrix (all engines x modes x {complex,gamma} through the shared stage
# graph), the golden digests that hold every policy row of the schedule
# executor bit-identical, the pinned event counts (steps, jobs, rate
# refreshes and processes of every engine), the node model's bit-determinism and its match
# with the map-based reference (the fuzz target's seed inputs included), the
# sphere's match with the map
# enumeration, the auto-selector contract and the dataflow row's
# barrier-free properties, then the quick-suite runtime matrix for
# eyeballing. It runs under the
# race detector: the schedule executor and the work-stealing pool are the
# code most exposed to scheduling races, so the matrix doubles as their
# concurrency gate.
engines-matrix:
	$(GO) test -race ./internal/fftx ./internal/knl ./internal/pw -short -count=1 -run 'TestEngineMatrix|TestGoldenEngineDigests|TestEventCountsPinned|TestRatesBitIdenticalAcrossCalls|TestRatesMatchesMapReference|FuzzRatesMatchesReference|TestSphereMatchesMapEnumeration|TestAutoSelectsFastestEngine|TestAutoRunResolvesAndMatches|TestDataflow'
	$(GO) run ./cmd/fftxbench -quick engines
