#!/bin/sh
# introspect-smoke: end-to-end check of the fftxd observability surface.
#
# Starts fftxd with every request traced, drives JSON transforms with client
# trace IDs, then asserts:
#
#   - traced replies echo the trace ID in the Fftx-Trace-Id header
#   - /debug/fftx/requests is well-formed, non-empty JSON whose recent
#     entries carry both client trace IDs and span trees with the expected
#     request phases
#   - fftxtrace -requests renders the span trees from the live endpoint
#   - the drain is clean and the structured log carries trace IDs
#
# Exits non-zero on any missing or malformed output.
set -eu

workdir="$(mktemp -d)"
dlog="$workdir/fftxd.log"
pid=""
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

go build -o "$workdir/fftxd" ./cmd/fftxd
go build -o "$workdir/fftxtrace" ./cmd/fftxtrace

"$workdir/fftxd" -addr 127.0.0.1:0 -trace-sample 1 -log-level debug >"$dlog" 2>&1 &
pid=$!

url=""
for _ in $(seq 1 50); do
    url="$(sed -n 's/^fftxd: serving .* at \(http:[^ ]*\).*$/\1/p' "$dlog")"
    [ -n "$url" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "introspect-smoke: fftxd exited early:" >&2
        cat "$dlog" >&2
        exit 1
    fi
    sleep 0.1
done
[ -n "$url" ] || { echo "introspect-smoke: no fftxd URL" >&2; cat "$dlog" >&2; exit 1; }
echo "introspect-smoke: fftxd at $url"

# Traced transforms with client-supplied IDs; the echo header must match.
# 8x8 complex input = 128 floats, deterministic payload like serve-smoke's.
data="$(awk 'BEGIN{for (i = 0; i < 128; i++) printf "%s%.3f", (i ? "," : ""), i % 5 - 2}')"
for id in 00c0ffee00c0ffee 00deadbeef00beef; do
    hdr="$(curl -fsS -D - -o /dev/null -X POST -H 'Content-Type: application/json' \
        --data-binary "{\"dims\":[8,8],\"trace_id\":\"$id\",\"data\":[$data]}" \
        "$url/fft" | tr -d '\r' | sed -n 's/^Fftx-Trace-Id: //p')"
    if [ "$hdr" != "$id" ]; then
        echo "introspect-smoke: trace ID $id not echoed (got '$hdr')" >&2
        exit 1
    fi
done
echo "introspect-smoke: trace IDs echoed in Fftx-Trace-Id"

reqdump="$workdir/requests.json"
curl -fsS "$url/debug/fftx/requests" >"$reqdump"
python3 - "$reqdump" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
recent = d["recent"]
assert recent, "no recent traced requests"
spans = [s["name"] for rv in recent if rv["spans"] for s in rv["spans"]["spans"]]
for want in ("request", "decode", "queue", "exec", "encode"):
    assert want in spans, f"no {want!r} span in /debug/fftx/requests"
assert all(len(rv["trace_id"]) == 16 for rv in recent), "malformed trace IDs"
ids = {rv["trace_id"] for rv in recent}
for want in ("00c0ffee00c0ffee", "00deadbeef00beef"):
    assert want in ids, f"client trace ID {want} not among the recent requests"
print(f"introspect-smoke: /debug/fftx/requests ok ({len(recent)} traced requests)")
EOF

render="$workdir/render.txt"
"$workdir/fftxtrace" -requests "$url/debug/fftx/requests" >"$render"
grep -q 'request' "$render"
grep -q 'exec' "$render"
echo "introspect-smoke: fftxtrace -requests renders span trees"

kill -TERM "$pid"
wait "$pid" || { echo "introspect-smoke: fftxd did not drain" >&2; cat "$dlog" >&2; exit 1; }
pid=""

grep -q 'trace_id' "$dlog" || { echo "introspect-smoke: no structured request logs" >&2; exit 1; }
echo "introspect-smoke: structured logs carry trace IDs"
echo "introspect-smoke: PASS"
