// The benchmark is a module of its own so that the repository's
// `go build ./...` and `go test ./...` do not pick it up. Its module path
// sits under repro/, which is what lets it import repro/internal/...; the
// replace directive points that import at the checkout it is run from.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
