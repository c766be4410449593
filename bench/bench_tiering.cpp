// Tiered-placement policy sweep: IPC vs fast-tier capacity for the three
// migration policies (DESIGN.md §10), over the skewed hot/cold workloads.
//
// The static_interleave arm is given the fairest static configuration we can
// write down: the whole fast tier is pinned as HDM ranges over the start of
// every core's cold region. It still loses to hotness_lru at matched
// capacity in the skew regime (fast tier comparable to the warm set)
// because the warm subset is page-sparse — scattered by a hash over the
// cold tier — so no contiguous range can capture it, only per-page
// migration can. As capacity grows far beyond the warm set the comparison
// shifts regime: static pinning keeps absorbing uniform cold traffic with
// zero copy cost while the hotness policy has nothing warm left to promote,
// so the sweep's top end shows the gap closing — that crossover is the
// point of the figure. At full budget the harness asserts the acceptance
// gates and exits non-zero on violation:
//   1. hotness_lru IPC > static_interleave IPC at matched capacity for the
//      two smallest capacities (the skew-capture regime).
//   2. Under hotness_lru, more fast capacity never hurts IPC (1% tolerance).
// The bandwidth_aware_spill arm runs with spill_fraction = 0.10, so it
// deliberately stops promoting once the fast tier carries ~10% of accesses
// and lands between static and hotness_lru.
#include "bench/common/harness.hpp"

#include "placement/tier_config.hpp"
#include "sim/svg_plot.hpp"
#include "workload/generator.hpp"

namespace {
using namespace coaxial;

/// Pin `total_pages` of fast capacity as static HDM ranges, split evenly
/// across the cores' cold regions (the only tier the skewed traffic misses
/// to). Uses the generator's published region layout so the ranges cover
/// real traffic, not dead address space.
std::vector<placement::HdmRange> fair_static_ranges(std::uint32_t cores,
                                                    std::uint64_t total_pages,
                                                    std::uint32_t page_lines) {
  std::vector<placement::HdmRange> ranges;
  const std::uint64_t per_core = total_pages / cores;
  if (per_core == 0) return ranges;
  for (std::uint32_t c = 0; c < cores; ++c) {
    const workload::Regions r =
        workload::region_layout(workload::find_workload("tiered-hotcold"), c);
    ranges.push_back({r.cold_base / kLineBytes, per_core * page_lines});
  }
  return ranges;
}

}  // namespace

int main() {
  using namespace coaxial;
  bench::announce("Tiering sweep", "policy x fast-tier capacity, skewed hot/cold");

  const std::vector<std::uint64_t> capacities = {256, 1024, 4096};
  const std::vector<placement::PolicyKind> policies = {
      placement::PolicyKind::kStaticInterleave, placement::PolicyKind::kHotnessLru,
      placement::PolicyKind::kBandwidthSpill};
  const std::vector<std::string> workloads = {"tiered-hotcold", "tiered-hotcold-wide"};
  const bench::Budget b = bench::budget();

  std::vector<sim::RunRequest> requests;
  for (const std::string& wl : workloads) {
    for (const placement::PolicyKind policy : policies) {
      for (const std::uint64_t cap : capacities) {
        sys::SystemConfig cfg = sys::coaxial_tiered(policy, cap);
        cfg.name += "/" + std::to_string(cap) + "p";
        if (policy == placement::PolicyKind::kStaticInterleave) {
          cfg.tiering.hdm_fast_ranges = fair_static_ranges(
              cfg.uarch.cores, cap, cfg.tiering.page_lines);
        } else if (policy == placement::PolicyKind::kBandwidthSpill) {
          cfg.tiering.spill_fraction = 0.10;
        }
        requests.push_back(sim::homogeneous(cfg, wl, b.warmup, b.measure, 42));
      }
    }
  }
  const auto runs = sim::run_many(requests, bench::bench_threads());

  report::Table table({"workload", "policy", "fast_pages", "ipc_per_core",
                       "fast_fraction", "promotions", "demotions", "migration_mb"});
  // ipc[workload][policy][capacity]
  std::vector<std::vector<std::vector<double>>> ipc(
      workloads.size(), std::vector<std::vector<double>>(
                            policies.size(), std::vector<double>(capacities.size())));
  std::size_t i = 0;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t c = 0; c < capacities.size(); ++c, ++i) {
        const sim::RunResult& r = runs[i];
        ipc[w][p][c] = r.stats.ipc_per_core;
        auto count = [&](const char* path) -> std::uint64_t {
          const auto it = r.metrics.find(path);
          return it == r.metrics.end() ? 0 : it->second.count;
        };
        const auto ff = r.metrics.find("tier/fast/fraction");
        table.add_row({workloads[w], placement::policy_name(policies[p]),
                       std::to_string(capacities[c]),
                       report::num(ipc[w][p][c], 4),
                       report::num(ff == r.metrics.end() ? 0.0 : ff->second.value, 3),
                       std::to_string(count("tier/promotions")),
                       std::to_string(count("tier/demotions")),
                       report::num(static_cast<double>(count("tier/migration_bytes")) /
                                       (1024.0 * 1024.0),
                                   1)});
      }
    }
  }
  table.print();

  // Acceptance gates — meaningful only at a real budget; the CI smoke runs
  // this bench at a tiny budget purely for determinism checking.
  bool ok = true;
  const bool full_budget = b.measure >= 100'000;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t c = 0; c + 1 < capacities.size(); ++c) {
      const double lru = ipc[w][1][c], stat = ipc[w][0][c];
      std::cout << "\n" << workloads[w] << ": hotness_lru/static_interleave @"
                << capacities[c] << "p = " << report::num(lru / stat, 3);
      if (full_budget && !(lru > stat)) {
        std::cout << "  VIOLATED (lru must win under skew at matched capacity)";
        ok = false;
      }
    }
    for (std::size_t c = 1; c < capacities.size(); ++c) {
      if (full_budget && ipc[w][1][c] < 0.99 * ipc[w][1][c - 1]) {
        std::cout << "\n  VIOLATED: hotness_lru IPC fell " << capacities[c - 1]
                  << "p -> " << capacities[c] << "p";
        ok = false;
      }
    }
  }
  std::cout << "\n\ncapacity monotonicity + lru-beats-static: "
            << (full_budget ? (ok ? "hold" : "VIOLATED")
                            : "not checked (budget too small)")
            << "\n";

  bench::finish(table, "tiering_sweep.csv", runs);
  std::vector<double> x(capacities.begin(), capacities.end());
  std::vector<report::Series> series;
  for (std::size_t p = 0; p < policies.size(); ++p) {
    series.push_back({placement::policy_name(policies[p]), ipc[0][p]});
  }
  const std::string svg = bench::out_path("tiering_sweep.svg");
  if (report::write_line_chart_svg(svg, "IPC vs fast-tier capacity (tiered-hotcold)",
                                   x, series, "fast-tier capacity (pages)",
                                   "IPC per core")) {
    std::cout << "[svg] " << svg << "\n";
  }
  return ok ? 0 : 1;
}
