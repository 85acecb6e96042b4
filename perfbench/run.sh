#!/usr/bin/env bash
# Builds serve_cli and the benchmark harness from this checkout, then runs
# the harness with the given arguments, e.g.
#   bash perfbench/run.sh --workload campaign-cached --seed 1 --seconds 30 --trace 0
# Build output goes to stderr; the harness prints its result as the last
# stdout line. Exits non-zero without a result when anything fails to build.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ]; then
    echo "perfbench: no Cargo.toml at $(pwd): run from a full checkout" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p bea-bench --bin serve_cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --serve-cli "$target/release/serve_cli" "$@"
