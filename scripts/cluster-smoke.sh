#!/bin/sh
# cluster-smoke: end-to-end check of the fftxd cluster tier (README
# "Cluster serving").
#
# Builds fftxd, then stands up a router fronting two workers — one listed
# statically with -peers, one self-registering with -join, so both
# discovery paths are exercised. Checks, in order:
#
#   1. membership: the router reports both workers up;
#   2. JSON traffic: one curl POST per shape of a 12-shape mix through the
#      router, every reply 200, and the Fftx-Worker reply header names both
#      workers across the mix;
#   3. topology: /debug/fftx/cluster lists both members with ring shares,
#      and /metrics carries the fftxd_cluster_* families;
#   4. the kill drill: SIGTERM one worker while a curl loop posts through
#      the router — the drain announces a leave, the ring ejects it, every
#      request answers 200 and the loop sees replies after the leave;
#   5. clean shutdown of the survivors.
#
# Binary-format traffic through the router is covered in process by
# TestEndToEndFailover (internal/cluster). Exits non-zero on any failed
# check.
set -eu

workdir="$(mktemp -d)"
pids=""
trap 'for p in $pids; do kill "$p" 2>/dev/null || true; done; rm -rf "$workdir"' EXIT INT TERM

dims="4x4 8x8 4x4x4 16 8x4 32 2x4x4 16x4 4x16 64 8x2 2x2x2"

go build -o "$workdir/fftxd" ./cmd/fftxd

# One JSON transform body per shape of the mix: body-0.json .. body-11.json.
nbodies=0
for d in $dims; do
    n=1
    for x in $(echo "$d" | tr x ' '); do
        n=$((n * x))
    done
    printf '{"dims":[%s],"data":[%s]}' "$(echo "$d" | tr x ,)" \
        "$(yes 0 | head -n $((2 * n)) | paste -sd, -)" >"$workdir/body-$nbodies.json"
    nbodies=$((nbodies + 1))
done

# post BODY HEADERS — POSTs a body file to the router's /fft, saves the
# reply headers and prints the status code (000 when the request failed).
post() {
    curl -sS -o /dev/null -D "$2" -w '%{http_code}' \
        -H 'Content-Type: application/json' --data-binary "@$1" "$rturl/fft" || true
}

# wait_lines FILE N — polls until FILE holds at least N lines.
wait_lines() {
    for _ in $(seq 1 100); do
        [ "$(wc -l <"$1")" -ge "$2" ] && return 0
        sleep 0.1
    done
    echo "cluster-smoke: $1 never reached $2 lines" >&2
    exit 1
}

# wait_url LOGFILE PATTERN — polls a daemon log for its advertised URL.
wait_url() {
    _url=""
    for _ in $(seq 1 50); do
        _url="$(sed -n "$2" "$1")"
        [ -n "$_url" ] && break
        sleep 0.1
    done
    if [ -z "$_url" ]; then
        echo "cluster-smoke: no URL in $1:" >&2
        cat "$1" >&2
        exit 1
    fi
    echo "$_url"
}

# Worker 1: static peer. Worker 2 joins dynamically once the router is up.
"$workdir/fftxd" -addr 127.0.0.1:0 -trace-sample 0 >"$workdir/w1.log" 2>&1 &
pids="$pids $!"
w1pid=$!
w1url="$(wait_url "$workdir/w1.log" 's/^fftxd: serving .* at \(http:[^ ]*\).*$/\1/p')"

"$workdir/fftxd" -router -addr 127.0.0.1:0 -peers "${w1url#http://}" >"$workdir/rt.log" 2>&1 &
pids="$pids $!"
rtpid=$!
rturl="$(wait_url "$workdir/rt.log" 's/^fftxd: routing .* at \(http:[^ ]*\).*$/\1/p')"

"$workdir/fftxd" -addr 127.0.0.1:0 -trace-sample 0 -join "$rturl" >"$workdir/w2.log" 2>&1 &
pids="$pids $!"
w2pid=$!
w2url="$(wait_url "$workdir/w2.log" 's/^fftxd: serving .* at \(http:[^ ]*\).*$/\1/p')"

# ---- 1. membership: both discovery paths converge to two up members ------
up=""
for _ in $(seq 1 50); do
    up="$(curl -fsS "$rturl/healthz" | sed -n 's/.*"up":\([0-9]*\).*/\1/p')"
    [ "$up" = 2 ] && break
    sleep 0.1
done
if [ "$up" != 2 ]; then
    echo "cluster-smoke: router never saw 2 up workers (got '$up'):" >&2
    curl -fsS "$rturl/debug/fftx/cluster" >&2 || true
    exit 1
fi
echo "cluster-smoke: membership ok (static peer + dynamic join, 2 up)"

# ---- 2. mixed-shape JSON traffic through the router, from both workers --
: >"$workdir/json-leg.workers"
i=0
while [ "$i" -lt "$nbodies" ]; do
    code="$(post "$workdir/body-$i.json" "$workdir/json-leg.headers")"
    if [ "$code" != 200 ]; then
        echo "cluster-smoke: JSON leg: shape $i answered '$code'" >&2
        exit 1
    fi
    tr -d '\r' <"$workdir/json-leg.headers" |
        sed -n 's/^Fftx-Worker: //p' >>"$workdir/json-leg.workers"
    i=$((i + 1))
done
for w in "$w1url" "$w2url"; do
    if ! grep -qx "$w" "$workdir/json-leg.workers"; then
        echo "cluster-smoke: no reply named $w; Fftx-Worker per shape:" >&2
        cat "$workdir/json-leg.workers" >&2
        exit 1
    fi
done
echo "cluster-smoke: JSON leg ok ($nbodies shapes, replies from both workers)"

# ---- 3. topology and metrics surfaces ------------------------------------
topo="$workdir/topology.json"
curl -fsS "$rturl/debug/fftx/cluster" >"$topo"
[ "$(grep -o '"state":"up"' "$topo" | wc -l)" = 2 ]
grep -q '"shares"' "$topo"
grep -q '"vnodes"' "$topo"
echo "cluster-smoke: /debug/fftx/cluster ok"

cmetrics="$workdir/cluster-metrics.txt"
curl -fsS "$rturl/metrics" >"$cmetrics"
grep -q '^# TYPE fftxd_cluster_requests_total counter$' "$cmetrics"
grep -q '^fftxd_cluster_members{state="up"} 2$' "$cmetrics"
grep -q '^fftxd_cluster_routed_total' "$cmetrics"
echo "cluster-smoke: fftxd_cluster_* metrics ok ($(grep -c '^fftxd_cluster_' "$cmetrics") sample lines)"

# ---- 4. the kill drill: lose a worker mid-load, lose no requests ---------
# A background loop posts the mix one request at a time and logs each
# status code until the stop file appears.
drill="$workdir/drill.codes"
: >"$drill"
(
    i=0
    while [ ! -e "$workdir/drill.stop" ]; do
        post "$workdir/body-$((i % nbodies)).json" "$workdir/drill.headers" >>"$drill"
        echo >>"$drill"
        i=$((i + 1))
    done
) &
looppid=$!
pids="$pids $looppid"
wait_lines "$drill" 10
kill -TERM "$w2pid"
wait "$w2pid" || true
grep -q 'drained cleanly' "$workdir/w2.log"
# w2 announced its leave before it drained: the loop must go on answering.
after="$(wc -l <"$drill")"
wait_lines "$drill" $((after + 10))
touch "$workdir/drill.stop"
wait "$looppid"
if grep -qvx 200 "$drill"; then
    echo "cluster-smoke: requests failed during the kill drill:" >&2
    sort "$drill" | uniq -c >&2
    exit 1
fi
up="$(curl -fsS "$rturl/healthz" | sed -n 's/.*"up":\([0-9]*\).*/\1/p')"
if [ "$up" != 1 ]; then
    echo "cluster-smoke: router still reports $up up workers after the drill" >&2
    curl -fsS "$rturl/debug/fftx/cluster" >&2 || true
    exit 1
fi
curl -fsS "$rturl/metrics" | grep -q '^fftxd_cluster_membership_total{kind="leave"} 1$'
total="$(wc -l <"$drill")"
echo "cluster-smoke: kill drill ok ($total requests, $((total - after)) after the leave; worker drained, ring ejected it, zero failed)"

# ---- 5. clean shutdown ---------------------------------------------------
kill -TERM "$rtpid"
wait "$rtpid" || true
grep -q 'router stopped' "$workdir/rt.log"
kill -TERM "$w1pid"
wait "$w1pid" || true
grep -q 'drained cleanly' "$workdir/w1.log"
pids=""
echo "cluster-smoke: clean shutdown ok"
echo "cluster-smoke: PASS"
