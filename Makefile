# Build/verify entry points. `make check` is the tier-1 gate: build, go vet,
# the repo's own fftxvet analyzer and a gofmt cleanliness check, then the
# test suite. CI runs the same targets.

GO ?= go

.PHONY: all build test check vet fmt race fuzz-smoke overhead-smoke serve-smoke introspect-smoke cluster-smoke serve-bench cluster-bench bench-json engines-matrix vet-bench

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

# race runs the internal packages under the race detector without test
# result caching. The simulator is single-goroutine-at-a-time by design;
# this guards the engine's own handoff protocol.
race:
	$(GO) test -race -count=1 ./internal/...

# fuzz-smoke runs a short bounded fuzz of the FFT round-trip property, of
# the batch kernels against their serial reference (bit-identical across
# layouts, rounding tolerance against the mixed-radix baseline and the naive
# DFT), of the fftxd binary request decoder (malformed input must error,
# never panic) and of its JSON request decoder against encoding/json (equal
# results on everything both accept, never a panic). Each package has
# several fuzz targets, so -fuzz must pick one.
fuzz-smoke:
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=10s -run='^$$' ./internal/fft
	$(GO) test -fuzz=FuzzBatchMatchesReference -fuzztime=10s -run='^$$' ./internal/fft
	$(GO) test -fuzz=FuzzRequestDecode -fuzztime=10s -run='^$$' ./internal/serve
	$(GO) test -fuzz=FuzzJSONRequestDecode -fuzztime=10s -run='^$$' ./internal/serve

# overhead-smoke measures the cost of the always-on telemetry: the
# enabled/disabled benchmark pair plus the min-of-N smoke test that fails on
# a pathological regression (design target <5%, see README "Observability").
# The serving side gets the same treatment: TestTracingOverheadSmoke serves
# the same request stream with tracing off and fully on and fails if tracing
# grossly slows the path (the precise <5% budget is measured by
# scripts/serve-bench.sh into BENCH_serve.json).
overhead-smoke:
	$(GO) test ./internal/fftx -run '^$$' -bench RunTelemetry -benchtime 5x
	$(GO) test ./internal/fftx -run TestTelemetryOverheadSmoke -count=1 -v
	$(GO) test ./internal/serve -run TestTracingOverheadSmoke -count=1 -v

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

# cluster-bench measures router + N-worker scaling against a fixed injected
# per-worker service time and merges the result into BENCH_serve.json as the
# "cluster" section (target: router+2 workers >= 1.6x one fftxd).
# DURATION=300ms gives a fast harness smoke-run.
cluster-bench:
	./scripts/cluster-bench.sh

# serve-bench drives the fftxd load generator (closed loop with and without
# batching, plus an open-loop pass) and writes BENCH_serve.json, the
# machine-readable serving baseline (see README "Serving"). DURATION=200ms
# gives a fast harness smoke-run.
serve-bench:
	./scripts/serve-bench.sh

# bench-json runs the kernel and host-par benchmark pairs and writes
# BENCH_fft.json, the machine-readable perf baseline (see README
# "Performance"). BENCHTIME=1x gives a fast harness smoke-run. It also
# records the per-engine runtime matrix as BENCH_engines.json.
bench-json:
	./scripts/bench-json.sh

# vet-bench times a full interprocedural fftxvet run over the module and
# writes BENCH_vet.json; it fails if the run exceeds VET_BUDGET_SECONDS
# (default 60). The analyzer runs on every check/CI pass, so its wall
# clock is part of the edit-compile-test loop and is pinned like any other
# perf baseline.
vet-bench:
	./scripts/vet-bench.sh

# engines-matrix is the cross-engine smoke gate: the short-mode equivalence
# matrix (all engines x modes x {complex,gamma} through the shared stage
# graph) plus the auto-selector contract and the dataflow engine's
# barrier-free properties, then the quick-suite runtime matrix for
# eyeballing. It runs under the race detector: the dataflow engine and the
# work-stealing pool are the code most exposed to scheduling races, so the
# matrix doubles as their concurrency gate.
engines-matrix:
	$(GO) test -race ./internal/fftx -short -count=1 -run 'TestEngineMatrix|TestAutoSelectsFastestEngine|TestAutoRunResolvesAndMatches|TestDataflow'
	$(GO) run ./cmd/fftxbench -quick engines
