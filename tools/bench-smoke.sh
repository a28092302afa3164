#!/usr/bin/env bash
# Tier-2 bench smoke: a scaled-down fig5 A/B ablation of the provider-side
# architecture index. Runs the same catalog and probe stream with the
# index enabled and disabled (--no-index path) and records queries/sec
# plus the dedup/pruning counters (scanned vs pruned) to
# results/BENCH_lcp.json.
#
# Sized to finish in well under a minute on a single core. Invoked from
# tools/check.sh when RUN_BENCH_SMOKE=1, or standalone:
#   tools/bench-smoke.sh [extra fig5 args...]
set -euo pipefail
cd "$(dirname "$0")/.."

CATALOG="${BENCH_SMOKE_CATALOG:-1000}"
DUPS="${BENCH_SMOKE_DUPS:-3}"
QUERIES="${BENCH_SMOKE_QUERIES:-800}"
RAW_QUERIES="${BENCH_SMOKE_RAW_QUERIES:-240}"
WORKERS="${BENCH_SMOKE_WORKERS:-4}"
OUT="${BENCH_SMOKE_OUT:-results/BENCH_lcp.json}"

echo "== bench smoke: fig5 A/B (indexed vs --no-index), catalog=${CATALOG} queries=${QUERIES}"
cargo run --release -q -p evostore-bench --bin fig5_lcp_scalability -- \
    --ab \
    --catalog "${CATALOG}" \
    --dups "${DUPS}" \
    --queries "${QUERIES}" \
    --raw-queries "${RAW_QUERIES}" \
    --workers "${WORKERS}" \
    --json "${OUT}" \
    "$@"

echo "== bench smoke: wrote ${OUT}"
