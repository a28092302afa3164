#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload (the form BENCHMARK.json's command takes);
#       the last line of standard output is the result as one JSON object.
#   benchmark/run.sh [--seed N] [--workload NAME] [--quick]
#       every workload (or one) untraced, then traced, each in a process
#       of its own; prints every metric, writes benchmark/out/latest.json
#       and traces, appends a line to benchmark/results/history.jsonl.
#       --quick runs about a twentieth of the work, for smoke use only.
#
# The binary is built into $CARGO_TARGET_DIR, or the repository's target/
# when that is unset. Nothing outside the checkout is written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

# A run with --trace is the single-run form; a leading word names a
# command of the binary (stability.sh passes one); anything else is the
# suite.
command=suite
if [[ " $* " == *" --trace "* ]]; then
    command=
elif [[ $# -gt 0 && "$1" != --* ]]; then
    command="$1"
    shift
fi
exec "$target/release/evostore-benchmark" --bench-dir "$here" $command "$@"
