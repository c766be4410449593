#include "sim/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "common/thread_pool.hpp"
#include "obs/profiler.hpp"
#include "obs/stats_json.hpp"

namespace coaxial::sim {

RunRequest homogeneous(const sys::SystemConfig& cfg, const std::string& workload,
                       std::uint64_t warmup, std::uint64_t measure, std::uint64_t seed) {
  RunRequest r;
  r.config = cfg;
  r.workloads = {workload};
  r.warmup_instr = warmup;
  r.measure_instr = measure;
  r.seed = seed;
  return r;
}

namespace {

/// Open-loop dispatch: arrival processes drive the memory system directly;
/// the run ends at the simulated-time horizon (plus inflight drain), not at
/// a per-core instruction count.
RunResult run_service(const RunRequest& request) {
  ServiceDriver driver(request.config, request.service, request.seed);
  driver.set_tick_every_cycle(request.tick_every_cycle);
  const auto wall_start = std::chrono::steady_clock::now();
  driver.run();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;

  RunResult result;
  result.config_name = request.config.name;
  result.workload_name = request.service.name;
  result.seed = request.seed;
  result.open_loop = true;
  result.warmup_cycles = request.service.warmup_cycles;
  result.measure_cycles = request.service.measure_cycles;
  result.host_seconds = wall.count();
  result.service = driver.stats();
  result.slo = driver.slo_checks();
  result.metrics = driver.metrics().snapshot();
  return result;
}

/// Multi-host pooled dispatch: the pool config names its own workload and
/// the instruction budgets apply per host slice. The metrics snapshot
/// carries the whole pool/* subtree, so the JSON document shape is the same
/// as any closed-loop run.
RunResult run_pooled(const RunRequest& request) {
  PooledSystem system(request.pool, request.seed);
  system.set_tick_every_cycle(request.tick_every_cycle);
  // Shard workers (DESIGN.md §14), bounded by the harness cap (run_many).
  std::uint32_t want = std::max(request.shards, 1u);
  if (request.shard_cap != 0) want = std::min(want, request.shard_cap);
  system.set_workers(want);

  const obs::prof::Totals prof_base = obs::prof::thread_totals();
  const auto wall_start = std::chrono::steady_clock::now();
  const PooledStats stats =
      system.run(request.warmup_instr, request.measure_instr);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  if (obs::prof::enabled()) {
    // Coordinator-thread phases plus the shard workers' folded totals;
    // opt-in like host_seconds, so default trees keep their shape.
    obs::prof::Totals delta = obs::prof::thread_totals().delta_since(prof_base);
    delta.add(system.worker_prof_totals());
    obs::prof::publish(obs::Scope(&system.metrics(), "host/prof"), delta);
  }

  RunResult result;
  result.config_name = request.pool.name;
  result.workload_name = request.pool.workload;
  result.seed = request.seed;
  result.warmup_instr = request.warmup_instr;
  result.measure_instr = request.measure_instr;
  result.host_seconds = wall.count();
  result.shards = system.effective_workers();
  result.pooled = stats;
  result.metrics = system.metrics().snapshot();
  return result;
}

}  // namespace

RunResult run_one(const RunRequest& request) {
  if (request.pool.enabled()) return run_pooled(request);
  if (request.service.enabled()) return run_service(request);
  const std::uint32_t cores = request.config.uarch.cores;
  std::vector<workload::WorkloadParams> per_core;
  per_core.reserve(cores);
  if (request.workloads.empty()) {
    throw std::invalid_argument("RunRequest needs at least one workload name");
  }
  sys::SystemConfig cfg = request.config;
  const bool tier_override = !request.tier_policy.empty() ||
                             request.tier_fast_pages != 0 ||
                             request.tier_epoch_cycles != 0;
  if (tier_override) {
    if (!cfg.tiering.enabled) {
      throw std::invalid_argument(
          "RunRequest: tiering overrides require a config with tiering enabled");
    }
    if (!request.tier_policy.empty()) {
      cfg.tiering.policy = placement::policy_from_name(request.tier_policy);
    }
    if (request.tier_fast_pages != 0) {
      cfg.tiering.fast_capacity_pages = request.tier_fast_pages;
    }
    if (request.tier_epoch_cycles != 0) {
      cfg.tiering.epoch_cycles = request.tier_epoch_cycles;
    }
    cfg.tiering.validate();  // Reject bad sweeps before spending a run.
  }
  // Catalog lookups are string-keyed; resolve each distinct name once and
  // reuse the params across cores (mixes repeat a handful of names).
  std::unordered_map<std::string, workload::WorkloadParams> by_name;
  for (std::uint32_t c = 0; c < cores; ++c) {
    const std::string& name = request.workloads.size() == 1
                                  ? request.workloads.front()
                                  : request.workloads[c % request.workloads.size()];
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      it = by_name.emplace(name, workload::find_workload(name)).first;
    }
    per_core.push_back(it->second);
  }

  System system(cfg, per_core, request.seed);
  system.set_tick_every_cycle(request.tick_every_cycle);
  const obs::prof::Totals prof_base = obs::prof::thread_totals();
  const auto wall_start = std::chrono::steady_clock::now();
  system.run(request.warmup_instr, request.measure_instr);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  if (obs::prof::enabled()) {
    // Opt-in phase breakdown for this run, published like host_seconds:
    // never part of default runs, so the golden tree shape is untouched.
    obs::prof::publish(obs::Scope(&system.metrics(), "host/prof"),
                       obs::prof::thread_totals().delta_since(prof_base));
  }

  RunResult result;
  result.config_name = cfg.name;
  result.workload_name = request.workloads.size() == 1
                             ? request.workloads.front()
                             : "mix-" + std::to_string(request.mix_id);
  result.seed = request.seed;
  result.warmup_instr = request.warmup_instr;
  result.measure_instr = request.measure_instr;
  result.host_seconds = wall.count();
  result.stats = system.stats();
  result.metrics = system.metrics().snapshot();
  return result;
}

std::vector<RunRequest> golden_requests() {
  // Small budgets keep the golden test fast while still exercising both
  // topologies (direct DDR and CXL-attached) plus the asymmetric-lane
  // variant, and the pooled driver's quantum engine on three pools: a
  // direct fabric, a switched one, and a direct one through a surprise
  // removal. Changing this set invalidates
  // tests/golden/baseline.json.
  const auto pooled = [](const pool::PoolConfig& cfg) {
    RunRequest r;
    r.pool = cfg;
    r.warmup_instr = 300;
    r.measure_instr = 1500;
    r.seed = 7;
    return r;
  };
  return {
      homogeneous(sys::baseline_ddr(), "canneal", 500, 2000, /*seed=*/7),
      homogeneous(sys::coaxial_4x(), "lbm", 500, 2000, /*seed=*/7),
      homogeneous(sys::coaxial_asym(), "stream-copy", 500, 2000, /*seed=*/7),
      pooled(sys::coaxial_pooled(4)),
      pooled(sys::coaxial_pooled_switched(4)),
      pooled(sys::coaxial_pooled_faulty(4, /*at_cycle=*/4'000)),
  };
}

std::vector<RunResult> run_many(const std::vector<RunRequest>& requests,
                                std::size_t threads) {
  std::vector<RunResult> results(requests.size());
  ThreadPool pool(threads == 0 ? std::thread::hardware_concurrency() : threads);
  // Outer run-level parallelism composes with intra-run shard workers;
  // cap the inner count so outer x inner never oversubscribes the machine.
  // Caps are pure scheduling — they cannot change any run's stats.
  const std::uint32_t cap = static_cast<std::uint32_t>(
      inner_shard_cap(pool.size(), std::thread::hardware_concurrency()));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    pool.submit([&, i, cap] {
      RunRequest req = requests[i];
      if (req.shard_cap == 0 || cap < req.shard_cap) req.shard_cap = cap;
      results[i] = run_one(req);
    });
  }
  pool.wait_idle();
  return results;
}

// ------------------------------------------------------------- JSON export

namespace {

void write_run(obs::json::Writer& w, const RunResult& r, const StatsJsonOptions& opts) {
  w.begin_object();
  w.key("config");
  w.value(r.config_name);
  w.key("workload");
  w.value(r.workload_name);
  w.key("seed");
  w.value(r.seed);
  if (r.open_loop) {
    // Open-loop runs are bounded by simulated time, not instruction counts;
    // closed-loop runs keep the original keys so the golden document stays
    // byte-identical.
    w.key("open_loop");
    w.value(true);
    w.key("warmup_cycles");
    w.value(r.warmup_cycles);
    w.key("measure_cycles");
    w.value(r.measure_cycles);
  } else {
    w.key("warmup_instr");
    w.value(r.warmup_instr);
    w.key("measure_instr");
    w.value(r.measure_instr);
  }
  if (opts.include_host_seconds) {
    // Host timing is non-deterministic; emitting it by default would break
    // the byte-identical guarantee the determinism/golden tests rely on.
    // The effective shard-worker count rides the same opt-in: it is
    // machine-local scheduling, not simulation state (and the determinism
    // tests prove the rest of the document is identical across counts).
    w.key("host_seconds");
    w.value(r.host_seconds);
    w.key("shards");
    w.value(std::uint64_t{r.shards});
  }
  w.key("metrics");
  obs::json::write_snapshot(w, r.metrics);
  w.end_object();
}

}  // namespace

std::string stats_json(const std::vector<RunResult>& results,
                       const StatsJsonOptions& options) {
  obs::json::Writer w;
  w.begin_object();
  w.key("schema");
  w.value("coaxial-stats-v1");
  w.key("runs");
  w.begin_array();
  for (const RunResult& r : results) write_run(w, r, options);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string stats_json(const RunResult& result, const StatsJsonOptions& options) {
  return stats_json(std::vector<RunResult>{result}, options);
}

bool write_stats_json(const std::vector<RunResult>& results, const std::string& path,
                      const StatsJsonOptions& options) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string doc = stats_json(results, options);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace coaxial::sim
