#!/usr/bin/env bash
# Run every workload N times (default 2) untraced with one seed, print the
# relative spread of each end-to-end metric against its bound in
# BENCHMARK.json, write benchmark/results/stability.json, and exit
# non-zero when a spread exceeds its bound.
#
#   benchmark/stability.sh [N] [--vary-seed] [--seed N] [--workload NAME]
#
# --vary-seed gives every run its own seed (seed, seed+1, ...), which is
# how the acceptance check compares ten runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=2
if [[ $# -gt 0 && "$1" =~ ^[0-9]+$ ]]; then
    runs="$1"
    shift
fi
exec "$here/run.sh" stability --runs "$runs" "$@"
