#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository root:
#   bash perfbench/run.sh --workload <green500|store-query|serve> --seed <n> --seconds <s> --trace <0|1>
# Cargo's output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
