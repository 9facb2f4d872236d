#!/usr/bin/env bash
# Builds the release `semitri-cli` and the benchmark from this checkout,
# then runs one workload:
#
#   bash perfbench/run.sh --workload annotate_taxi --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/semitri ]]; then
    echo "perfbench: no semitri workspace next to the benchmark" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --bin semitri-cli >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/semitri-perfbench" --cli "$CARGO_TARGET_DIR/release/semitri-cli" "$@"
