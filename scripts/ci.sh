#!/usr/bin/env bash
# The CI gate, run as is by .github/workflows/ci.yml: format, lint, docs,
# build, test, smokes of the CLI, the benchmark harness and the examples.
# The fetch, clippy and the build pass --locked, so a stale Cargo.lock
# fails the run instead of being re-resolved: no cargo command that could
# rewrite the lock runs before the --locked clippy.
#
# The workspace has no external dependencies, so everything also works on a
# machine with no registry access — if `cargo fetch` fails, every later
# step runs with `--offline` (and a stale lock still fails clippy).
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=""
if ! cargo fetch --locked --quiet 2>/dev/null; then
    echo "== cargo fetch failed (no registry, or a stale Cargo.lock), continuing with --offline"
    OFFLINE="--offline"
fi

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy $OFFLINE --locked --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc $OFFLINE --workspace --no-deps --quiet

# Doc examples are the API's contract — including the README code blocks,
# which doc-test through fetchvp-experiments.
echo "== cargo test --doc"
cargo test $OFFLINE -q --doc --workspace

echo "== tier-1: cargo build --release"
cargo build $OFFLINE --locked --release

echo "== tier-1: cargo test -q"
cargo test $OFFLINE -q

# The batch kernel's correctness contract: batched configs produce counters
# byte-identical to serial runs, on every workload, at --jobs 1 and 8.
echo "== batch-vs-serial differential"
cargo test $OFFLINE -q -p fetchvp-experiments --test batch_vs_serial

# "Outputs unchanged": every registry experiment, the four --chart figures
# and the bench report against tests/golden.json, along every
# execution path (--jobs, progress observer, stored windows, JobSpec::run,
# served fresh/cached/proxied through a two-member fleet). Also covered by
# the workspace test run above; named here so an output change fails
# loudly.
echo "== golden identity matrix"
cargo test $OFFLINE -q -p fetchvp-server --test golden_identity

# The daemon's wire and lifecycle unit gates (also covered by the
# workspace test run above; named here so a regression fails under its
# own name): the HTTP reader's framing and smuggling cases (trailing
# keep-alive bytes, exact body reads, duplicate Content-Length,
# Transfer-Encoding, malformed header lines) and the job table's
# lifecycle, event log and eviction.
echo "== http reader and job table regressions"
cargo test $OFFLINE -q -p fetchvp-server --lib -- http:: jobs::

# Out-of-core tracestore: chunked round-trip, corruption-hardening and
# cache-semantics tests (also covered by the workspace test run above;
# named here so a format change fails loudly), then a 20M-instruction
# smoke through the content-addressed trace cache — generation streams to
# disk, the machine sweep replays chunk-by-chunk, and the pre-generated
# trace is reused (the `trace-gen` line prints `already cached` when the
# sweep finds it warm). The analysis runners (fig3-3's DID walk and
# table3-1's statistics) then walk the same stores the sweep generated.
echo "== tracestore tests"
cargo test $OFFLINE -q -p fetchvp-tracestore

echo "== out-of-core smoke (20M instructions)"
TRACE_DIR=$(mktemp -d)
cargo run $OFFLINE --release -p fetchvp-cli -- trace-gen m88ksim \
    --trace-len 20000000 --trace-dir "$TRACE_DIR"
cargo run $OFFLINE --release -p fetchvp-cli -- trace-info "$TRACE_DIR"/m88ksim-*.fvps
cargo run $OFFLINE --release -p fetchvp-cli -- usefulness \
    --trace-len 20000000 --trace-dir "$TRACE_DIR" --csv >/dev/null
for experiment in fig3-3 table3-1; do
    cargo run $OFFLINE --release -p fetchvp-cli -- "$experiment" \
        --trace-len 20000000 --trace-dir "$TRACE_DIR" --csv >/dev/null
done

# The flagship streaming e2e: the same 20M out-of-core sweep served over
# HTTP with a live `GET /jobs/<id>/events` follower — monotone progress,
# on-disk chunk indices in the events, and a result byte-identical to
# the in-process run. Reuses the traces the smoke above just generated.
echo "== out-of-core streaming e2e (20M instructions)"
FETCHVP_E2E_TRACE_DIR="$TRACE_DIR" cargo test $OFFLINE --release -q -p fetchvp-server \
    --test stream_e2e -- --ignored
rm -rf "$TRACE_DIR"

# The standing invariant gate: differentially fuzz sampled workload-family
# points across the spanning machine set (fixed seed — deterministic, and
# any failure prints a replayable repro tuple; see EXPERIMENTS.md).
echo "== fuzz-smoke"
cargo run $OFFLINE --release -p fetchvp-cli -- fuzz --cases 64 --seed 7

# Pipeline witness: a small cycle-accurate trace (load it in
# ui.perfetto.dev to eyeball a run). CI keeps it as an artifact.
echo "== trace-viz smoke"
cargo run $OFFLINE --release -p fetchvp-cli -- trace-viz gcc --trace-len 5000 \
    --cycles 0..2000 --out target/trace_gcc.json

# Scenario atlas: where in workload space the fetch-bandwidth x
# value-prediction effect is largest (a markdown table per family). CI
# keeps it as an artifact.
echo "== scenario atlas"
: >target/atlas.md
for family in m88ksim gcc mgrid; do
    cargo run $OFFLINE --release -p fetchvp-cli -- atlas "$family" >>target/atlas.md
done

# The benchmark harness (its own cargo workspace over these crates): its
# self-tests check the kernel APIs it drives, chunked = in-memory replay
# and cached = fresh served bytes; the smoke run drives all four
# workloads at tiny sizes end to end.
echo "== benchmark harness self-tests + smoke"
cargo test --offline -q --manifest-path perfbench/Cargo.toml
bash perfbench/run.sh --smoke

for example in quickstart did_analysis trace_cache_vp custom_workload event_vs_analytic serve_client out_of_core; do
    echo "== example: $example"
    cargo run $OFFLINE --release --example "$example" >/dev/null
done

echo "== server smoke"
./scripts/server_smoke.sh

echo "== CI green"
