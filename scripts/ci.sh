#!/usr/bin/env bash
# CI entry point: lint the library for environment reads, configure, build,
# run the full test suite, verify the golden stats document (event-driven;
# the ctest pass also pins it in lockstep) against the checked-in baseline
# with statdiff, run the two-run determinism smokes (RAS, open-loop
# service, tiering, pooling and availability benches: their ras/*, svc/*,
# tier/*, pool/* and ras/avail/* stats must agree exactly across two
# runs), smoke the sanitizer build (-DCOAXIAL_SANITIZE=ON) on the
# invariant + golden + fabric + ras + perf + svc + tier + pool + avail +
# dram ctest labels (perf carries the single-host event wheel, the flat
# MSHR table and the event == lockstep runs), and run the sched label (sharded quantum engine, DESIGN.md
# §14) under TSan (-DCOAXIAL_SANITIZE=thread) to prove the quantum
# barriers race-free.
# Host performance is measured by bench_perf (BENCHMARK.json,
# bench/perf/README.md), whose smoke test runs in the ctest pass under the
# bench label; compare builds with bench/perf/ab.py, not in CI.
#
# Usage: scripts/ci.sh [BUILD_DIR]     (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "=== lint: no environment reads in the library ==="
# A run's stats are a function of its RunRequest alone: the library takes
# no configuration from the environment. env.hpp defines the helpers the
# benches and examples use; COAXIAL_PROF (profiler.cpp) is host-side
# instrumentation that never touches simulation state.
if grep -rnwE 'getenv|env_flag|env_u64|env_double' src/ \
    | grep -vE '^src/(common/env\.hpp|obs/profiler\.cpp):'; then
  echo "environment read in src/ (move the knob into RunRequest)" >&2
  exit 1
fi

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

# Two-run determinism smoke: run bench BENCH twice at a small budget (the
# extra environment ENV) and require its stats documents DOC... to be
# byte-equivalent. Leaves under GLOB are pinned exact — fault draws, arrival
# streams, migration epochs and the directory protocol are all seeded or
# counter-based, so two runs must agree bit-for-bit — and everything else
# gets the golden tolerance. The first document must also carry the
# feature's subtree KEY, or the smoke would pass on a run that never
# enabled it.
#   two_run_smoke BENCH KEY GLOB ENV DOC...
two_run_smoke() {
  local bench="$1" key="$2" glob="$3" env="$4"
  shift 4
  local dir="${BUILD_DIR}/${bench}_smoke"
  local bin
  bin="$(cd "${BUILD_DIR}" && pwd)/bench/${bench}"
  echo "=== two-run smoke: ${bench} (${glob} exact) ==="
  mkdir -p "${dir}/a" "${dir}/b"
  for side in a b; do
    # shellcheck disable=SC2086  # ENV is a list of NAME=VALUE words.
    (cd "${dir}/${side}" && env COAXIAL_STATS_JSON=1 ${env} "${bin}" > "${bench}.log")
  done
  grep -q "\"${key}\"" "${dir}/a/out/$1.stats.json"
  for doc in "$@"; do
    "${BUILD_DIR}/tools/statdiff" --rtol 1e-9 --rtol "${glob}=0" \
      "${dir}/a/out/${doc}.stats.json" "${dir}/b/out/${doc}.stats.json"
  done
}

INSTR_BUDGET="COAXIAL_INSTR=10000 COAXIAL_WARMUP=2000"
two_run_smoke bench_ras ras 'ras/*' "${INSTR_BUDGET}" ras_ber_sweep
two_run_smoke bench_tail_latency svc 'svc/*' \
  "COAXIAL_SVC_CYCLES=20000 COAXIAL_SVC_WARMUP=2000" \
  tail_latency_sweep tail_latency_noisy
two_run_smoke bench_tiering tier 'tier/*' "${INSTR_BUDGET}" tiering_sweep
two_run_smoke bench_pooling pool 'pool/*' "${INSTR_BUDGET}" pooling_sweep
two_run_smoke bench_availability avail 'ras/avail/*' "${INSTR_BUDGET}" availability

echo "=== sanitizer build (ASan+UBSan) ==="
SAN_DIR="${BUILD_DIR}-asan"
cmake -B "${SAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCOAXIAL_SANITIZE=ON
cmake --build "${SAN_DIR}" -j "${JOBS}"
# Invariant + golden + fabric + ras + svc + tier + pool + avail labels
# drive every layer (cores, caches, DRAM, CXL, switched fabric, scheduler,
# fault injection, open-loop service traffic, tiered placement/migration,
# multi-host pooling/coherence, device-failure lifecycle) end to end under
# the sanitizers without rerunning all 600+ tests. The dram label adds the
# controller's own suites: its packed scan keys and parallel queue arrays
# are where out-of-bounds and truncation bugs would hide. The perf label
# adds the index-linked structures of the single-host payload path: the
# event wheel's node pool and bucket lists (test_event_queue), the flat
# MSHR table (test_mshr) and event == lockstep System runs (test_scheduler).
ctest --test-dir "${SAN_DIR}" --output-on-failure -j "${JOBS}" -L "invariant|golden|fabric|ras|perf|svc|tier|pool|avail|dram"

echo "=== thread-sanitizer build (TSan, sched label) ==="
# The sharded quantum engine (DESIGN.md §14) is the only multi-threaded
# code inside a single run; the sched-labeled tests drive it at 2-8
# workers under TSan: the atomic generation/arrival barrier on both its
# spin and park paths, an oversubscribed (never-spinning) team, worker
# exceptions, cost-measured re-placement, mailbox drains and profiler
# folding — on direct, star and tree pools, so the switched heads' uplink
# mailbox (pool-owned device uplinks feeding host-owned switch planes) and
# their switch-port credits run under it too.
# TSan cannot be combined with ASan, hence the third build tree.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "${TSAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCOAXIAL_SANITIZE=thread
cmake --build "${TSAN_DIR}" -j "${JOBS}"
ctest --test-dir "${TSAN_DIR}" --output-on-failure -j "${JOBS}" -L sched

echo "=== CI OK ==="
