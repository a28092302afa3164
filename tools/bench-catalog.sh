#!/usr/bin/env bash
# Tier-2 catalog read-path smoke. One real-execution pass of the
# catalog_ab bench: single vs batched LCP envelopes
# and reader scaling under a throttled store/retire writer, all against
# the snapshot-isolated concurrent catalog. Results land in
# results/BENCH_catalog.json.
#
# Gates:
#   * batched aggregate throughput >= 10x the BENCH_lcp indexed
#     baseline (read from results/BENCH_lcp.json when present,
#     800 q/s otherwise);
#   * reader scaling 1 -> N under churn: >= 3x on hosts with >= 4
#     cores; on smaller hosts lock-free reads just must not collapse
#     (>= 0.7x — snapshot reads cost no locks, so adding readers on a
#     saturated core should be roughly neutral).
#
# Sized to finish in well under a minute. Invoked from tools/check.sh
# when RUN_BENCH_CATALOG=1, or standalone:
#   tools/bench-catalog.sh [extra catalog_ab args...]
set -euo pipefail
cd "$(dirname "$0")/.."

CATALOG="${CATALOG_SMOKE_ARCHS:-1000}"
QUERIES="${CATALOG_SMOKE_QUERIES:-4000}"
BATCH="${CATALOG_SMOKE_BATCH:-64}"
OUT="${CATALOG_SMOKE_OUT:-results/BENCH_catalog.json}"

echo "== catalog smoke: snapshot-isolated reads, batched envelopes, churn scaling"
cargo run --release -q -p evostore-bench --bin catalog_ab -- \
    --catalog "${CATALOG}" \
    --queries "${QUERIES}" \
    --batch "${BATCH}" \
    --json "${OUT}" \
    "$@"

BASELINE=800
if [[ -f results/BENCH_lcp.json ]]; then
    B=$(sed -n 's/.*"indexed_qps": \([0-9.]*\).*/\1/p' results/BENCH_lcp.json | head -n1)
    [[ -n "${B}" ]] && BASELINE="${B}"
fi
BATCHED=$(sed -n 's/.*"batched_qps": \([0-9.]*\).*/\1/p' "${OUT}")
SCALING=$(sed -n 's/.*"scaling_ratio": \([0-9.]*\).*/\1/p' "${OUT}")
CORES=$(sed -n 's/.*"cores": \([0-9]*\).*/\1/p' "${OUT}")

SPEEDUP=$(awk -v a="${BATCHED}" -v b="${BASELINE}" 'BEGIN { printf "%.1f", a / b }')
echo "== catalog smoke: batched ${BATCHED} q/s vs ${BASELINE} q/s baseline (${SPEEDUP}x, gate: >= 10)"
awk -v x="${SPEEDUP}" 'BEGIN { exit !(x >= 10.0) }' || {
    echo "== catalog smoke: FAIL — batched throughput under 10x the LCP baseline" >&2
    exit 1
}

if [[ "${CORES}" -ge 4 ]]; then
    echo "== catalog smoke: reader scaling ${SCALING}x on ${CORES} cores (gate: >= 3)"
    awk -v x="${SCALING}" 'BEGIN { exit !(x >= 3.0) }' || {
        echo "== catalog smoke: FAIL — readers do not scale on a multi-core host" >&2
        exit 1
    }
else
    echo "== catalog smoke: reader scaling ${SCALING}x on ${CORES} core(s) (gate: >= 0.7, no collapse)"
    awk -v x="${SCALING}" 'BEGIN { exit !(x >= 0.7) }' || {
        echo "== catalog smoke: FAIL — concurrent readers collapse under churn" >&2
        exit 1
    }
fi
echo "== catalog smoke: OK (${OUT})"
