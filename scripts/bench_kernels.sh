#!/usr/bin/env bash
# Kernel micro-benchmark: reference vs blocked GEMM/im2col, the NCC
# backbone against its scalar oracle (plus DETR's stacked encoder pass)
# on the detectors' hot shapes. Writes BENCH_kernels.json at the repo
# root — one record per --quick value — and fails (via --check) when the
# blocked convolution regresses below the reference one on the medium
# shape, or the DETR attention matmul, the NCC backbone or the DETR head
# product misses its minimum speedup.
#
# Usage: scripts/bench_kernels.sh [--quick]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p bea-bench --bench kernels -- \
    --check --out "$(pwd)/BENCH_kernels.json" "$@"
