#!/usr/bin/env bash
# Build `miniperf` and the benchmark from this checkout, then run the
# benchmark:
#
#   bash e2ebench/run.sh --workload <roofline-stream|profile-sqlite|serve-mixed|all> \
#       --seed N --seconds S --trace 0|1
#
# Both builds share one target directory: $CARGO_TARGET_DIR if set, else
# ./target. The last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --target-dir "$target" --bin miniperf >&2
cargo build --release --quiet --offline --target-dir "$target" \
    --manifest-path e2ebench/Cargo.toml >&2
"$target/release/e2ebench" --miniperf "$target/release/miniperf" "$@"
