#!/usr/bin/env bash
# The fetchvp benchmark's one command.
#
#   perfbench/run.sh [--workload NAME|all] [--seed S] [--seconds N] [--trace [0|1]]
#                    [--sets N [--runs N]] [--smoke] [--update-golden]
#
# Builds fetchvp-cli and the harness in release mode (offline), runs each
# workload in a fresh child process, prints `workload metric value unit`
# lines and ends with one JSON result line. Full reports, Chrome traces
# and set summaries go to $CARGO_TARGET_DIR/benchmark (default
# target/benchmark). Exits non-zero if any output check fails.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p fetchvp-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release"
exec "$bin/fetchvp-benchmark" --cli "$bin/fetchvp-cli" --out "$CARGO_TARGET_DIR/benchmark" \
    --golden perfbench/golden.json "$@"
