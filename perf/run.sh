#!/usr/bin/env bash
# Builds the mlpart CLI (from the repository's own workspace) and the perf
# benchmark (its own workspace, beside it) into one target directory, then
# runs perf with this script's arguments. Run from the repository root:
#
#   bash perf/run.sh --workload bisect-ml --seed 1 --seconds 20 --trace 0
#   bash perf/run.sh --seed 1997        # every workload, both modes
#
# perf runs as a child rather than through exec: resource usage survives
# exec, so the builds would count as perf's children in the peak memory it
# reports for the CLI workload.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p mlpart --bin mlpart >&2
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/perf" "$@"
