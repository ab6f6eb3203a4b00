#!/usr/bin/env bash
# Builds the release `dqma-server` / `dqma-node` binaries (default
# features) and the benchmark, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_small --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# Artifacts go to $CARGO_TARGET_DIR (default .bench_build), journals and
# span files to .bench_build/perfbench-run.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin dqma-server --bin dqma-node >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --bin-dir "$CARGO_TARGET_DIR/release" --out .bench_build/perfbench-run
