#include "workloads.hpp"

#include <algorithm>

#include "coaxial/configs.hpp"

namespace bench_perf {

namespace sim = coaxial::sim;
namespace sys = coaxial::sys;

namespace {

std::uint64_t budget(double instr, double scale) {
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(instr * scale));
}

sim::RunRequest closed_loop(const sys::SystemConfig& cfg, const char* workload,
                            double warmup, double measure, std::uint64_t seed,
                            double scale) {
  return sim::homogeneous(cfg, workload, budget(warmup, scale), budget(measure, scale),
                          seed);
}

sim::RunRequest ddr_canneal(std::uint64_t seed, double scale) {
  return closed_loop(sys::baseline_ddr(), "canneal", 60'000, 200'000, seed, scale);
}

sim::RunRequest cxl4x_lbm(std::uint64_t seed, double scale) {
  return closed_loop(sys::coaxial_4x(), "lbm", 18'000, 60'000, seed, scale);
}

sim::RunRequest tiered_hotcold(std::uint64_t seed, double scale) {
  return closed_loop(sys::coaxial_tiered(), "tiered-hotcold", 60'000, 200'000, seed,
                     scale);
}

// 0.4 of peak bandwidth offered by three Poisson tenants and one bursty
// MMPP tenant. At this load every generated request is admitted before the
// horizon (no backlog on any of seeds 1..300; at 0.5, 3 of 40 seeds end an
// MMPP burst with a backlog), so a seed fixes the work exactly. Bursts are
// short (2k cycles, not the default 20k) so a run holds ~50 of them and
// the offered load varies ~1% between seeds instead of ~7%.
sim::RunRequest svc_cxl4x(std::uint64_t seed, double scale) {
  sim::RunRequest r;
  r.config = sys::coaxial_4x();
  r.seed = seed;
  r.service.name = "svc-cxl4x";
  r.service.warmup_cycles = budget(5'000, scale);
  r.service.measure_cycles = budget(400'000, scale);
  for (int i = 0; i < 4; ++i) {
    sim::ServiceTenant t;
    t.arrival.offered_load = 0.1;
    t.arrival.write_fraction = 0.3;
    if (i == 3) {
      t.arrival.process = coaxial::workload::ArrivalProcessKind::kMmpp;
      t.arrival.mean_burst_cycles = 2'000;
    }
    r.service.tenants.push_back(t);
  }
  return r;
}

sim::RunRequest pooled(const coaxial::pool::PoolConfig& pool, double warmup,
                       double measure, std::uint32_t shards, std::uint64_t seed,
                       double scale) {
  sim::RunRequest r;
  r.pool = pool;
  r.warmup_instr = budget(warmup, scale);
  r.measure_instr = budget(measure, scale);
  r.seed = seed;
  r.shards = shards;
  return r;
}

sim::RunRequest pool4h_w1(std::uint64_t seed, double scale) {
  return pooled(sys::coaxial_pooled(4), 48'000, 160'000, 1, seed, scale);
}

sim::RunRequest pool4h_w4(std::uint64_t seed, double scale) {
  return pooled(sys::coaxial_pooled(4), 48'000, 160'000, 4, seed, scale);
}

sim::RunRequest pool4h_switched(std::uint64_t seed, double scale) {
  return pooled(sys::coaxial_pooled_switched(4), 24'000, 80'000, 1, seed, scale);
}

}  // namespace

double metric_at(const coaxial::obs::Snapshot& m, const std::string& path) {
  const auto it = m.find(path);
  return it == m.end() ? 0.0 : it->second.as_double();
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"ddr-canneal",
       "closed-loop irregular accesses on one DDR channel, no CXL link: core, "
       "cache and event spine do most of the work",
       ddr_canneal},
      {"cxl4x-lbm",
       "bandwidth-bound streaming with stores, prefetcher and CALM on: DRAM "
       "controller, CXL link and memory pump dominate",
       cxl4x_lbm},
      {"svc-cxl4x",
       "open-loop memory-only traffic at 0.4 of peak, no cores or caches: a "
       "core or cache change should not move it",
       svc_cxl4x},
      {"tiered-hotcold",
       "the only workload on the placement layer: two-stage decode, migration "
       "epochs and write-shootdown",
       tiered_hotcold},
      {"pool4h-w1",
       "4-host pool on a direct fabric: coherence directory plus the quantum "
       "engine pumped inline on one thread",
       pool4h_w1},
      {"pool4h-w4",
       "the pool4h-w1 simulation on 4 shard workers: barrier wait, mailbox drain "
       "and parallel scaling",
       pool4h_w4, /*twin_shards=*/1},
      {"pool4h-switched",
       "4-host pool behind a CXL switch: switch arbitration and the sequential "
       "per-cycle pump",
       pool4h_switched},
  };
  return list;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

RunKind kind_of(const sim::RunRequest& request) {
  if (request.pool.enabled()) {
    return request.pool.fabric_kind == coaxial::fabric::TopologyKind::kDirect
               ? RunKind::kPooledEngine
               : RunKind::kPooledSequential;
  }
  return request.service.enabled() ? RunKind::kService : RunKind::kSystem;
}

double sim_cycles(const sim::RunRequest& request, const sim::RunResult& result) {
  switch (kind_of(request)) {
    case RunKind::kSystem:
      // The run loop starts at cycle 0 and every cycle is either dispatched
      // or skipped, so the two counters sum to the final cycle.
      return static_cast<double>(result.stats.sched_cycles_dispatched +
                                 result.stats.sched_cycles_skipped);
    case RunKind::kService:
      return metric_at(result.metrics, "svc/horizon_cycles");
    case RunKind::kPooledEngine:
    case RunKind::kPooledSequential:
      return static_cast<double>(result.pooled.total_cycles);
  }
  return 0;
}

std::vector<std::string> check_outputs(const sim::RunRequest& request,
                                       const sim::RunResult& result) {
  std::vector<std::string> failed;
  const coaxial::obs::Snapshot& m = result.metrics;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failed.push_back(what);
  };
  for (const auto& [path, value] : m) {
    if (path.ends_with("/invariants/violations")) {
      expect(value.as_double() == 0, path + " != 0");
    }
  }
  switch (kind_of(request)) {
    case RunKind::kSystem:
      expect(result.stats.instructions >=
                 request.measure_instr * request.config.uarch.active_cores,
             "retired instructions below the measured budget");
      if (request.config.tiering.enabled) {
        expect(metric_at(m, "tier/promotions") - metric_at(m, "tier/demotions") ==
                   metric_at(m, "tier/remap_occupancy"),
               "tier promotions - demotions != remap_occupancy");
      }
      break;
    case RunKind::kService: {
      const sim::ServiceStats& s = result.service;
      expect(s.generated == s.admitted + s.backlog_at_end,
             "svc generated != admitted + backlog_at_end");
      expect(s.backlog_at_end == 0, "svc backlog_at_end != 0");
      break;
    }
    case RunKind::kPooledEngine:
    case RunKind::kPooledSequential: {
      expect(metric_at(m, "pool/coh/invals_sent") ==
                 metric_at(m, "pool/coh/invals_acked"),
             "pool invals_sent != invals_acked");
      expect(metric_at(m, "pool/coh/recall_writebacks") ==
                 metric_at(m, "pool/coh/recalls_dirty"),
             "pool recall_writebacks != recalls_dirty");
      const double budget = static_cast<double>(request.warmup_instr +
                                                request.measure_instr);
      for (std::uint32_t h = 0; h < request.pool.n_hosts; ++h) {
        const std::string path =
            "pool/host/" + coaxial::obs::idx(h) + "/instructions";
        expect(metric_at(m, path) >= budget, path + " below the budget");
      }
      break;
    }
  }
  return failed;
}

std::uint64_t sim_digest(const sim::RunResult& result) {
  sim::RunResult copy = result;
  // "host0" is the first key past every "host/..." path.
  copy.metrics.erase(copy.metrics.lower_bound("host/"),
                     copy.metrics.lower_bound("host0"));
  const std::string doc = sim::stats_json(copy);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : doc) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace bench_perf
