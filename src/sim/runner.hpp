// Run harness: builds systems for (configuration, workload) pairs, runs the
// measurement protocol, and fans independent runs out over a thread pool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coaxial/configs.hpp"
#include "obs/metrics.hpp"
#include "sim/pooled_system.hpp"
#include "sim/service.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace coaxial::sim {

struct RunRequest {
  sys::SystemConfig config;
  std::vector<std::string> workloads;  ///< One per core; a single name is
                                       ///< replicated across all cores.
  std::uint64_t warmup_instr = 120'000;
  std::uint64_t measure_instr = 400'000;
  std::uint64_t seed = 42;
  std::uint32_t mix_id = 0;  ///< Names multi-workload requests "mix-<i>".

  /// Open-loop service traffic. When `service.enabled()` (any tenant
  /// configured), the run is an open-loop ServiceDriver run: the instruction
  /// budgets and workload names above are ignored, and end-of-run is defined
  /// by the simulated-time horizon instead of per-core trace length.
  ServiceConfig service;

  /// Multi-host pooled-memory run. When `pool.enabled()` (n_hosts > 0) the
  /// run is a sim::PooledSystem run: `config` and `workloads` above are
  /// ignored (the pool config carries its own workload name) and the
  /// instruction budgets apply per host slice. Checked before `service`.
  pool::PoolConfig pool;

  /// Intra-run shard workers for pooled runs (DESIGN.md §14). 0 and 1 both
  /// mean one worker (every shard pumped inline). Any worker count yields
  /// byte-identical stats, on direct and switched pools alike.
  std::uint32_t shards = 0;

  /// Advance every component every cycle instead of skipping idle ones (the
  /// lockstep reference schedule). Stats are byte-identical either way.
  bool tick_every_cycle = false;
};

struct RunResult {
  std::string config_name;
  std::string workload_name;  ///< Single name, "mix-<i>", or the service name.
  std::uint64_t seed = 0;
  // Closed-loop budget (valid when !open_loop): instructions per core.
  std::uint64_t warmup_instr = 0;
  std::uint64_t measure_instr = 0;
  // Open-loop budget (valid when open_loop): simulated-cycle horizon.
  bool open_loop = false;
  Cycle warmup_cycles = 0;
  Cycle measure_cycles = 0;
  double host_seconds = 0;  ///< Host wall-clock spent inside run().
  std::uint32_t shards = 1;   ///< Effective shard workers (pooled runs).
  RunStats stats;             ///< Closed-loop window results (zero when open_loop).
  ServiceStats service;       ///< Open-loop window results (zero otherwise).
  PooledStats pooled;         ///< Multi-host pooled results (zero otherwise).
  std::vector<SloCheck> slo;  ///< Declared-SLO outcomes (open-loop only).
  obs::Snapshot metrics;  ///< Full registry snapshot taken after run().
};

/// Run one simulation synchronously.
RunResult run_one(const RunRequest& request);

/// Run many simulations, using up to `threads` host threads (0 = hardware
/// concurrency). Results are returned in request order.
std::vector<RunResult> run_many(const std::vector<RunRequest>& requests,
                                std::size_t threads = 0);

/// Convenience: request for one workload replicated on all cores.
RunRequest homogeneous(const sys::SystemConfig& cfg, const std::string& workload,
                       std::uint64_t warmup, std::uint64_t measure,
                       std::uint64_t seed = 42);

/// The runs pinned by tests/golden/baseline.json: three single-host
/// (config, workload) pairs, three 4-host pools, and two single-host runs
/// under the RAS stress plan (direct and two-level switched fabric).
/// Shared by the golden-regression test and tools/golden_run so both always
/// describe the same runs.
std::vector<RunRequest> golden_requests();

/// Optional fields of the stats JSON document. Everything that is not
/// deterministic (host timing) is opt-in so the default document stays
/// byte-identical for identical runs.
struct StatsJsonOptions {
  bool include_host_seconds = false;  ///< Emit per-run `host_seconds`.
};

/// Canonical JSON stats document ("coaxial-stats-v1") for one run or a batch.
/// Byte-identical for identical runs — the determinism and golden-regression
/// tests compare these documents directly.
std::string stats_json(const RunResult& result, const StatsJsonOptions& options = {});
std::string stats_json(const std::vector<RunResult>& results,
                       const StatsJsonOptions& options = {});

/// Write `stats_json(results, options)` to `path`. Returns false on I/O
/// failure.
bool write_stats_json(const std::vector<RunResult>& results, const std::string& path,
                      const StatsJsonOptions& options = {});

}  // namespace coaxial::sim
