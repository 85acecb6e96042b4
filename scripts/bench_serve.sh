#!/usr/bin/env bash
# Serving-layer load benchmark: boots serve_cli in reactor mode on the
# smoke dataset, drives an open-loop fan-out of concurrent connections
# through loadgen twice — once closing the connection after every
# request, once with HTTP/1.1 keep-alive — waits every accepted job to
# completion (zero accepted-job loss is part of the gate), gates the
# keep-alive run at >= 1.5x the close-per-request throughput, and
# upserts both run records into BENCH_serve.json at the repo root.
#
# Usage: scripts/bench_serve.sh [--quick]
#   --quick   256 connections / 2048 submissions (CI-sized); the
#             default is 512 connections / 4096 submissions. Both sizes
#             keep enough requests per connection (and enough
#             concurrency) for the keep-alive/close comparison to
#             measure the accept path, not loopback noise.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:7893
OUT=target/experiments/serve-bench
CONNS=512
TOTAL=4096
RAMP_MS=200
QUICK_FLAG=()
# Gates are deliberately loose: they catch collapse (a wedged reactor,
# an accept storm, a multi-second p99 regression), not jitter.
MIN_RPS=20
MAX_P99_MS=20000
MIN_SPEEDUP=1.5
if [[ "${1:-}" == "--quick" ]]; then
    CONNS=256
    TOTAL=2048
    QUICK_FLAG=(--quick)
    shift
fi

cargo build --release -p bea-bench --bin serve_cli --bin loadgen

rm -rf "$OUT"
# The queue is sized to the whole submission set: this benchmark
# measures the connection/submission path, so the open-loop burst must
# not be refused at the queue (backpressure has its own test coverage).
./target/release/serve_cli --addr "$ADDR" --reactor --smoke \
    --workers 4 --queue "$TOTAL" \
    --tenant-rate 0 --tenant-quota 0 \
    --out "$OUT" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 50); do
    curl -sf "http://$ADDR/healthz" >/dev/null && break
    sleep 0.2
done

# --ramp-ms staggers the connection dial so the admission path sees a
# ramp, not a synchronized stampede; --compare-keepalive drives the
# close-per-request baseline and the keep-alive run against the same
# server and gates their throughput ratio.
./target/release/loadgen --addr "$ADDR" \
    --conns "$CONNS" --total "$TOTAL" --tenants 8 --ramp-ms "$RAMP_MS" \
    --bench-out "$(pwd)/BENCH_serve.json" "${QUICK_FLAG[@]}" \
    --min-throughput "$MIN_RPS" --max-p99-ms "$MAX_P99_MS" \
    --compare-keepalive --min-keepalive-speedup "$MIN_SPEEDUP" \
    --wait "$@"

curl -sf -X POST "http://$ADDR/v1/shutdown" >/dev/null
wait "$SERVER_PID"
trap - EXIT
