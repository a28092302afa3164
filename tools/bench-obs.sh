#!/usr/bin/env bash
# Tier-2 observability overhead smoke. One real-execution pass of the
# obs_ab bench: the same batched LCP query stream through a
# TelemetryLevel::Full client (spans + exemplars + SLO engine + ledger)
# and a TelemetryLevel::Minimal client (bare histogram timing). In each
# round the two take turns envelope by envelope, alternating which goes
# first, and the round yields one overhead ratio; the gate reads the
# median of those ratios.
# Results land in results/BENCH_obs.json.
#
# Gate: the median relative overhead of the full telemetry pipeline on
# the catalog hot path must stay <= 5%. Negative overhead (noise in
# full's favor) passes trivially.
#
# Sized to finish in seconds. Invoked from tools/check.sh when
# RUN_BENCH_OBS=1, or standalone:
#   tools/bench-obs.sh [extra obs_ab args...]
set -euo pipefail
cd "$(dirname "$0")/.."

CATALOG="${OBS_SMOKE_ARCHS:-1000}"
QUERIES="${OBS_SMOKE_QUERIES:-3000}"
ROUNDS="${OBS_SMOKE_ROUNDS:-9}"
OUT="${OBS_SMOKE_OUT:-results/BENCH_obs.json}"

echo "== obs smoke: telemetry Full vs Minimal on batched LCP queries"
cargo run --release -q -p evostore-bench --bin obs_ab -- \
    --catalog "${CATALOG}" \
    --queries "${QUERIES}" \
    --rounds "${ROUNDS}" \
    --json "${OUT}" \
    "$@"

OVERHEAD=$(sed -n 's/.*"overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' "${OUT}")
LEDGER_OPS=$(sed -n 's/.*"ledger_ops": \([0-9]*\).*/\1/p' "${OUT}")

echo "== obs smoke: full-telemetry overhead ${OVERHEAD}% (median of ${ROUNDS} rounds; gate: <= 5%), ${LEDGER_OPS} ledger ops"
awk -v x="${OVERHEAD}" 'BEGIN { exit !(x <= 5.0) }' || {
    echo "== obs smoke: FAIL — telemetry pipeline costs more than 5% on the hot path" >&2
    exit 1
}
awk -v n="${LEDGER_OPS}" 'BEGIN { exit !(n > 0) }' || {
    echo "== obs smoke: FAIL — full arm recorded no ledger ops (pipeline inert?)" >&2
    exit 1
}
echo "== obs smoke: OK (${OUT})"
