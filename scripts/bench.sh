#!/usr/bin/env bash
# A/B perf bench: runs the switchless closed loop and the chaos fixture,
# diffs candidate against baseline with `sgxperf diff`, and emits
# BENCH_diff.json (the switchless verdict — the CI perf-gate artifact).
#
# Exit status: non-zero if the switchless optimisation stopped being an
# improvement, if the chaos regression stopped being detected (exit != 3),
# or on any build/run failure.
#
# Also runs the fleet scenario at acceptance scale (1000 enclaves x 100k
# requests, byte-identity asserted across two runs) and emits
# BENCH_fleet.json (spin-up rate, fleet throughput, peak EPC eviction
# rate). Set FLEET_SCALE=smoke|tiny to shrink it.
#
# Also runs the engine throughput bench (legacy OS-thread engine vs. fast
# coroutine engine) and emits BENCH_engine.json; fails unless the fast
# engine clears the SGXPERF_ENGINE_SPEEDUP_FLOOR (default 5x) and a
# 12-cell antipatterns/switchless spec run through the campaign matrix
# runner clears SGXPERF_SCALING_FLOOR (default 0.7x ideal). The scaling
# gate lives in engine_bench, not campaign_bench: the stressor sweep
# measured only 0.50-0.56 efficiency on 2 vCPUs.
#
# Also runs the declarative stressor sweep (specs/stressors.toml) serially
# and at full parallelism and emits BENCH_campaign.json (cells/sec,
# parallel efficiency — reported, not gated — per-stressor headline
# metrics, plus the supervision overheads: resume_validate_ms — a
# full-archive --resume that re-runs nothing — and flaky_retry_ms — one
# flaky cell's fail/backoff/pass cycle).
#
# usage: scripts/bench.sh [output-dir] [profile] [requests]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="${1:-target/ab-traces}"
PROFILE="${2:-unpatched}"
REQUESTS="${3:-1000}"
BENCH_JSON="${BENCH_JSON:-BENCH_diff.json}"
FLEET_JSON="${FLEET_JSON:-BENCH_fleet.json}"
FLEET_SCALE="${FLEET_SCALE:-full}"
ENGINE_JSON="${ENGINE_JSON:-BENCH_engine.json}"
CAMPAIGN_JSON="${CAMPAIGN_JSON:-BENCH_campaign.json}"
CAMPAIGN_SPEC="${CAMPAIGN_SPEC:-specs/stressors.toml}"

echo "== build (release, offline)"
cargo build --release --offline -p sgx-perf -p sgxperf-cli -p workloads --examples --bins

SGXPERF=target/release/sgxperf

echo "== record A/B trace pairs ($PROFILE, $REQUESTS requests)"
cargo run --release --offline -q -p workloads --example ab_traces -- \
    "$OUT_DIR" "$PROFILE" "$REQUESTS"

echo "== switchless diff (must NOT regress)"
"$SGXPERF" diff "$OUT_DIR/switchless-before.evdb" "$OUT_DIR/switchless-after.evdb" \
    --json > "$BENCH_JSON"
"$SGXPERF" diff "$OUT_DIR/switchless-before.evdb" "$OUT_DIR/switchless-after.evdb"

echo "== chaos diff (must regress with exit 3)"
set +e
"$SGXPERF" diff "$OUT_DIR/chaos-baseline.evdb" "$OUT_DIR/chaos-faulted.evdb"
CHAOS_EXIT=$?
set -e
if [ "$CHAOS_EXIT" -ne 3 ]; then
    echo "FAIL: chaos diff exited $CHAOS_EXIT, expected 3 (regression)" >&2
    exit 1
fi

echo "== fleet smoke ($FLEET_SCALE scale, $PROFILE, byte-identity across 2 runs)"
cargo run --release --offline -q -p workloads --example fleet_smoke -- \
    "$OUT_DIR" "$FLEET_SCALE" "$PROFILE"

# fleet_smoke labels the Foreshadow profile `l1tf` in trace filenames.
case "$PROFILE" in
    foreshadow) FLEET_TRACE="$OUT_DIR/fleet-l1tf.evdb" ;;
    *) FLEET_TRACE="$OUT_DIR/fleet-$PROFILE.evdb" ;;
esac

echo "== fleet report ($FLEET_TRACE)"
"$SGXPERF" report "$FLEET_TRACE" > /dev/null
"$SGXPERF" fleet "$FLEET_TRACE" --top 10

echo "== fleet bench ($FLEET_SCALE scale, $PROFILE)"
cargo run --release --offline -q -p workloads --example fleet_bench -- \
    "$FLEET_JSON" "$FLEET_SCALE" "$PROFILE"

echo "== engine bench (legacy vs fast, throughput floors enforced)"
cargo run --release --offline -q -p workloads --example engine_bench -- \
    "$ENGINE_JSON"

echo "== campaign bench ($CAMPAIGN_SPEC, serial vs all cores, resume + retry overheads)"
cargo run --release --offline -q -p workloads --example campaign_bench -- \
    "$CAMPAIGN_JSON" "$CAMPAIGN_SPEC"

echo "wrote $BENCH_JSON, $FLEET_JSON, $ENGINE_JSON and $CAMPAIGN_JSON"
