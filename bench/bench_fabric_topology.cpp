// Fabric topology sweep: speedup vs switch depth x device count.
//
// Compares direct point-to-point wiring against 1-switch (star) and
// 2-level (tree) fabrics at equal device count — isolating the per-hop
// premium (2 switch-port traversals + one re-serialisation each way) —
// and then scales the device count past the pin budget (8 devices on 4
// root ports), which only switched fabrics can express. Workloads include
// the cross-device interleave stress preset (xdev-stride) and a
// heterogeneous interleave_stress_mix row.
#include "bench/common/harness.hpp"

#include "common/stats.hpp"
#include "fabric/topology.hpp"
#include "sim/svg_plot.hpp"

int main() {
  using namespace coaxial;
  bench::announce("Fabric topology", "speedup vs switch depth x device count");

  const std::vector<sys::SystemConfig> configs = {
      sys::baseline_ddr(),
      sys::coaxial_4x(),          // Direct: 4 devices on 4 root ports, 0 hops.
      sys::coaxial_star(4, 4),    // Same 4 devices, 1 switch hop.
      sys::coaxial_tree(4, 4, 2), // Same 4 devices, 2 switch hops.
      sys::coaxial_star(8, 4),    // 2x devices on the same pins, 1 hop.
      sys::coaxial_tree(8, 4, 2), // 2x devices, 2 hops.
  };
  const std::vector<std::string> workloads = {"xdev-stride", "stream-copy", "lbm",
                                              "mcf"};
  const auto results = bench::run_matrix(configs, workloads);

  std::vector<bench::SpeedupColumn> cols;
  for (std::size_t i = 1; i < configs.size(); ++i) {
    cols.push_back({configs[i].name, configs[i].name, "DDR-baseline"});
  }
  auto series = bench::speedup_series(results, workloads, cols);

  // Heterogeneous mix row: xdev-stride rotated with stream-add/mcf/pagerank.
  const bench::Budget b = bench::budget();
  std::vector<std::string> mix_names;
  {
    const auto mix = workload::interleave_stress_mix(configs[0].uarch.cores);
    for (const auto& w : mix) mix_names.push_back(w.name);
  }
  std::vector<sim::RunRequest> mix_requests;
  for (const auto& cfg : configs) {
    sim::RunRequest req;
    req.config = cfg;
    req.workloads = mix_names;
    req.warmup_instr = b.warmup;
    req.measure_instr = b.measure;
    req.seed = 42;
    mix_requests.push_back(req);
  }
  const auto mix_runs = sim::run_many(mix_requests);
  std::vector<std::string> row = {"xdev-mix"};
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const double v =
        mix_runs[i + 1].stats.ipc_per_core / mix_runs[0].stats.ipc_per_core;
    series.columns[i].push_back(v);
    row.push_back(report::num(v));
  }
  series.table.add_row(row);
  series.table.print();

  std::cout << "\nGeomean speedup over DDR baseline:\n";
  std::vector<double> geomeans;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    geomeans.push_back(series.geomean(i));
    const auto& fab = configs[i + 1].fabric;
    const std::uint32_t hops =
        fab.kind == fabric::TopologyKind::kDirect ? 0
        : fab.kind == fabric::TopologyKind::kStar ? 1
                                                  : 2;
    std::cout << "  " << cols[i].label << ": " << report::num(geomeans.back())
              << "x  (" << configs[i + 1].cxl_devices()
              << " devices, " << hops << " switch hop(s))\n";
  }

  // At equal device count the hop premium must cost performance
  // monotonically: direct >= 1-switch >= 2-level.
  const bool ordered = geomeans[0] >= geomeans[1] && geomeans[1] >= geomeans[2];
  std::cout << "\nEqual-device ordering (direct >= star >= tree at 4 devices): "
            << (ordered ? "holds" : "VIOLATED") << " (" << report::num(geomeans[0])
            << " >= " << report::num(geomeans[1]) << " >= "
            << report::num(geomeans[2]) << ")\n";

  std::vector<std::string> all_rows = workloads;
  all_rows.push_back("xdev-mix");
  bench::finish(series.table, "fabric_topology.csv", results.runs);
  std::vector<report::Series> svg_series;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    svg_series.push_back({cols[i].label, series.columns[i]});
  }
  const std::string svg = bench::out_path("fabric_topology.svg");
  if (report::write_bar_chart_svg(svg, "Speedup vs switch depth x device count",
                                  all_rows, svg_series, /*reference=*/1.0)) {
    std::cout << "[svg] " << svg << "\n";
  }
  return ordered ? 0 : 1;
}
