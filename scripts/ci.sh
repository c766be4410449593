#!/usr/bin/env bash
# CI entry point: configure, build, run the full test suite, verify the
# golden stats document against the checked-in baseline with statdiff, run
# the RAS fault-preset, tiering, pooling, and availability smokes
# (deterministic ras/*, tier/*, pool/*, and ras/avail/* stats across two
# runs), smoke the sanitizer build (-DCOAXIAL_SANITIZE=ON) on the invariant
# + golden + fabric + ras + perf + svc + tier + pool + avail ctest labels,
# and run the sched label (sharded quantum engine, DESIGN.md §14) under TSan
# (-DCOAXIAL_SANITIZE=thread) to prove the quantum barriers race-free.
# Host performance is measured by bench_perf (BENCHMARK.json,
# bench/perf/README.md), whose smoke test runs in the ctest pass under the
# bench label; compare builds with bench/perf/ab.py, not in CI.
#
# Usage: scripts/ci.sh [BUILD_DIR]     (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "=== configure + build (${BUILD_DIR}) ==="
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release -DCOAXIAL_WERROR=ON
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "=== ctest ==="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "=== golden statdiff check ==="
# Re-run the pinned golden scenario set and diff against the committed
# baseline: integral leaves exact, float leaves within 1e-9 relative.
"${BUILD_DIR}/tools/golden_run" "${BUILD_DIR}/golden_current.json"
"${BUILD_DIR}/tools/statdiff" --rtol 1e-9 \
  tests/golden/baseline.json "${BUILD_DIR}/golden_current.json"

echo "=== RAS fault-preset smoke ==="
# Run the BER sweep twice at a small budget and require the stats documents
# to be byte-equivalent: ras/* leaves are pinned exact by a glob rule (the
# fault streams are counter-based, so two runs must agree bit-for-bit) and
# everything else gets the golden tolerance. Also assert the ras/* subtree
# actually appeared.
RAS_SMOKE="${BUILD_DIR}/ras_smoke"
BENCH_RAS="$(cd "${BUILD_DIR}" && pwd)/bench/bench_ras"
mkdir -p "${RAS_SMOKE}/a" "${RAS_SMOKE}/b"
for side in a b; do
  (cd "${RAS_SMOKE}/${side}" &&
   COAXIAL_STATS_JSON=1 COAXIAL_INSTR=10000 COAXIAL_WARMUP=2000 \
     "${BENCH_RAS}" > bench_ras.log)
done
grep -q '"ras"' "${RAS_SMOKE}/a/out/ras_ber_sweep.stats.json"
"${BUILD_DIR}/tools/statdiff" --rtol 1e-9 --rtol 'ras/*=0' \
  "${RAS_SMOKE}/a/out/ras_ber_sweep.stats.json" \
  "${RAS_SMOKE}/b/out/ras_ber_sweep.stats.json"

echo "=== open-loop service smoke ==="
# Run the tail-latency harness twice at a small budget and require the
# stats documents to be byte-equivalent: svc/* leaves (counts, cycle
# percentiles, SLO outcomes) are pinned exact by a glob rule — the arrival
# streams are seeded, so two runs must agree bit-for-bit — and everything
# else gets the golden tolerance. Also assert the svc/* subtree appeared.
SVC_SMOKE="${BUILD_DIR}/svc_smoke"
BENCH_TAIL="$(cd "${BUILD_DIR}" && pwd)/bench/bench_tail_latency"
mkdir -p "${SVC_SMOKE}/a" "${SVC_SMOKE}/b"
for side in a b; do
  (cd "${SVC_SMOKE}/${side}" &&
   COAXIAL_STATS_JSON=1 COAXIAL_SVC_CYCLES=20000 COAXIAL_SVC_WARMUP=2000 \
     "${BENCH_TAIL}" > bench_tail_latency.log)
done
grep -q '"svc"' "${SVC_SMOKE}/a/out/tail_latency_sweep.stats.json"
for doc in tail_latency_sweep tail_latency_noisy; do
  "${BUILD_DIR}/tools/statdiff" --rtol 1e-9 --rtol 'svc/*=0' \
    "${SVC_SMOKE}/a/out/${doc}.stats.json" \
    "${SVC_SMOKE}/b/out/${doc}.stats.json"
done

echo "=== tiering smoke ==="
# Run the tiering policy sweep twice at a small budget and require the
# stats documents to be byte-equivalent: tier/* leaves (epoch counts,
# migration traffic, remap occupancy) are pinned exact by a glob rule —
# migration decisions are epoch-deterministic, so two runs must agree
# bit-for-bit — and everything else gets the golden tolerance. Also assert
# the tier/* subtree appeared.
TIER_SMOKE="${BUILD_DIR}/tier_smoke"
BENCH_TIER="$(cd "${BUILD_DIR}" && pwd)/bench/bench_tiering"
mkdir -p "${TIER_SMOKE}/a" "${TIER_SMOKE}/b"
for side in a b; do
  (cd "${TIER_SMOKE}/${side}" &&
   COAXIAL_STATS_JSON=1 COAXIAL_INSTR=10000 COAXIAL_WARMUP=2000 \
     "${BENCH_TIER}" > bench_tiering.log)
done
grep -q '"tier"' "${TIER_SMOKE}/a/out/tiering_sweep.stats.json"
"${BUILD_DIR}/tools/statdiff" --rtol 1e-9 --rtol 'tier/*=0' \
  "${TIER_SMOKE}/a/out/tiering_sweep.stats.json" \
  "${TIER_SMOKE}/b/out/tiering_sweep.stats.json"

echo "=== pooling smoke ==="
# Run the multi-host pooling sweep twice at a small budget and require the
# stats documents to be byte-equivalent: pool/* leaves (coherence txns,
# invalidation send/ack counts, directory occupancy, per-host retirements)
# are pinned exact by a glob rule — the directory protocol is deterministic,
# so two runs must agree bit-for-bit — and everything else gets the golden
# tolerance. Also assert the pool/* subtree appeared.
POOL_SMOKE="${BUILD_DIR}/pool_smoke"
BENCH_POOL="$(cd "${BUILD_DIR}" && pwd)/bench/bench_pooling"
mkdir -p "${POOL_SMOKE}/a" "${POOL_SMOKE}/b"
for side in a b; do
  (cd "${POOL_SMOKE}/${side}" &&
   COAXIAL_STATS_JSON=1 COAXIAL_INSTR=10000 COAXIAL_WARMUP=2000 \
     "${BENCH_POOL}" > bench_pooling.log)
done
grep -q '"pool"' "${POOL_SMOKE}/a/out/pooling_sweep.stats.json"
"${BUILD_DIR}/tools/statdiff" --rtol 1e-9 --rtol 'pool/*=0' \
  "${POOL_SMOKE}/a/out/pooling_sweep.stats.json" \
  "${POOL_SMOKE}/b/out/pooling_sweep.stats.json"

echo "=== availability smoke ==="
# Run the device-failure availability bench twice at a small budget and
# require the stats documents to be byte-equivalent: ras/avail/* leaves
# (monitor trips, evacuation traffic, retirement counts) are pinned exact
# by a glob rule — the failure episode and error draws are counter-based,
# so two runs must agree bit-for-bit — and everything else gets the golden
# tolerance. Also assert the ras/avail/* subtree actually appeared.
AVAIL_SMOKE="${BUILD_DIR}/avail_smoke"
BENCH_AVAIL="$(cd "${BUILD_DIR}" && pwd)/bench/bench_availability"
mkdir -p "${AVAIL_SMOKE}/a" "${AVAIL_SMOKE}/b"
for side in a b; do
  (cd "${AVAIL_SMOKE}/${side}" &&
   COAXIAL_STATS_JSON=1 COAXIAL_INSTR=10000 COAXIAL_WARMUP=2000 \
     "${BENCH_AVAIL}" > bench_availability.log)
done
grep -q '"avail"' "${AVAIL_SMOKE}/a/out/availability.stats.json"
"${BUILD_DIR}/tools/statdiff" --rtol 1e-9 --rtol 'ras/avail/*=0' \
  "${AVAIL_SMOKE}/a/out/availability.stats.json" \
  "${AVAIL_SMOKE}/b/out/availability.stats.json"

echo "=== perf layer tests ==="
# Explicit pass over the host-performance label (profiler inertness,
# ready-cache vs brute-force equivalence, thread-pool exception safety).
# These also run in the full suite above; this line keeps the label wired.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" -L perf

echo "=== sanitizer build (ASan+UBSan) ==="
SAN_DIR="${BUILD_DIR}-asan"
cmake -B "${SAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCOAXIAL_SANITIZE=ON
cmake --build "${SAN_DIR}" -j "${JOBS}"
# Invariant + golden + fabric + ras + svc + tier + pool + avail labels
# drive every layer (cores, caches, DRAM, CXL, switched fabric, scheduler,
# fault injection, open-loop service traffic, tiered placement/migration,
# multi-host pooling/coherence, device-failure lifecycle) end to end under
# the sanitizers without rerunning all 600+ tests.
ctest --test-dir "${SAN_DIR}" --output-on-failure -j "${JOBS}" -L "invariant|golden|fabric|ras|perf|svc|tier|pool|avail"

echo "=== thread-sanitizer build (TSan, sched label) ==="
# The sharded quantum engine (DESIGN.md §14) is the only multi-threaded
# code inside a single run; the sched-labeled tests drive it at 2-8
# workers under TSan: the atomic generation/arrival barrier on both its
# spin and park paths, an oversubscribed (never-spinning) team, worker
# exceptions, cost-measured re-placement, mailbox drains and profiler
# folding.
# TSan cannot be combined with ASan, hence the third build tree.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "${TSAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCOAXIAL_SANITIZE=thread
cmake --build "${TSAN_DIR}" -j "${JOBS}"
ctest --test-dir "${TSAN_DIR}" --output-on-failure -j "${JOBS}" -L sched

echo "=== CI OK ==="
