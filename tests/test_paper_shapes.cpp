// Regression tests for the paper's qualitative claims — the "shape" results
// that must hold for the reproduction to be meaningful. These run small
// budgets, so thresholds are deliberately loose; the bench harnesses give
// the quantitative picture.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"
#include "sim/runner.hpp"
#include "workload/catalog.hpp"

namespace coaxial {
namespace {

sim::RunStats run(const sys::SystemConfig& cfg, const std::string& wl,
                  std::uint64_t seed = 42) {
  return sim::run_one(sim::homogeneous(cfg, wl, 20000, 50000, seed)).stats;
}

// §VI-A: bandwidth-bound workloads speed up drastically on COAXIAL-4x.
TEST(PaperShapes, StreamingWinsBig) {
  for (const char* wl : {"stream-copy", "stream-add", "lbm"}) {
    const double base = run(sys::baseline_ddr(), wl).ipc_per_core;
    const double coax = run(sys::coaxial_4x(), wl).ipc_per_core;
    EXPECT_GT(coax / base, 1.8) << wl;
  }
}

// §VI-A: latency-bound, LLC-friendly workloads lose (gcc: -26% in paper).
TEST(PaperShapes, GccClassLoses) {
  for (const char* wl : {"gcc", "xalancbmk", "omnetpp"}) {
    const double base = run(sys::baseline_ddr(), wl).ipc_per_core;
    const double coax = run(sys::coaxial_4x(), wl).ipc_per_core;
    EXPECT_LT(coax / base, 1.0) << wl;
    EXPECT_GT(coax / base, 0.6) << wl << " (loss should be bounded)";
  }
}

// §VI-A: COAXIAL operates at lower relative utilisation despite moving
// more absolute bytes on bandwidth-bound workloads.
TEST(PaperShapes, UtilizationDropsTrafficRises) {
  const auto base = run(sys::baseline_ddr(), "stream-triad");
  const auto coax = run(sys::coaxial_4x(), "stream-triad");
  EXPECT_LT(coax.bandwidth_utilization(), base.bandwidth_utilization());
  EXPECT_GT(coax.read_gbps() + coax.write_gbps(),
            base.read_gbps() + base.write_gbps());
}

// §VI-C: the design ordering asym >= 4x >= 2x. 2x and 4x are checked on a
// bandwidth-bound workload; Fig. 8's asym claim is about the geomean over
// the workload set, so asym/4x is checked there. On stream-scale alone
// asym/4x sits near 0.93 and swings with the seed.
TEST(PaperShapes, DesignOrderingOnStreaming) {
  const double base = run(sys::baseline_ddr(), "stream-scale").ipc_per_core;
  const double c2 = run(sys::coaxial_2x(), "stream-scale").ipc_per_core / base;
  const double c4 = run(sys::coaxial_4x(), "stream-scale").ipc_per_core / base;
  EXPECT_GT(c2, 1.0);
  EXPECT_GT(c4, c2);

  std::vector<sim::RunRequest> requests;
  for (const std::string& wl : workload::workload_names()) {
    requests.push_back(sim::homogeneous(sys::coaxial_4x(), wl, 20000, 50000, 42));
    requests.push_back(sim::homogeneous(sys::coaxial_asym(), wl, 20000, 50000, 42));
  }
  const std::vector<sim::RunResult> results = sim::run_many(requests);
  double log_sum = 0;
  for (std::size_t i = 0; i < results.size(); i += 2) {
    log_sum += std::log(results[i + 1].stats.ipc_per_core / results[i].stats.ipc_per_core);
  }
  const double asym_over_4x = std::exp(log_sum / static_cast<double>(results.size() / 2));
  EXPECT_GE(asym_over_4x, 0.95);  // Asym at least matches 4x.
}

// §VI-D: higher CXL latency premium monotonically shrinks the win.
TEST(PaperShapes, LatencyPremiumGradient) {
  auto with_port = [](double ns) {
    auto c = sys::coaxial_4x();
    c.cxl_port_ns = ns;
    return c;
  };
  const double base = run(sys::baseline_ddr(), "pagerank").ipc_per_core;
  const double s10 = run(with_port(2.5), "pagerank").ipc_per_core / base;
  const double s50 = run(with_port(12.5), "pagerank").ipc_per_core / base;
  const double s70 = run(with_port(17.5), "pagerank").ipc_per_core / base;
  EXPECT_GT(s10, s50);
  EXPECT_GT(s50 * 1.02, s70);
}

// §VI-E: at one active core, COAXIAL generally loses.
TEST(PaperShapes, SingleCoreSlowdown) {
  auto one = [](sys::SystemConfig c) {
    c.uarch.active_cores = 1;
    return c;
  };
  const double base = run(one(sys::baseline_ddr()), "kmeans").ipc_per_core;
  const double coax = run(one(sys::coaxial_4x()), "kmeans").ipc_per_core;
  EXPECT_LT(coax / base, 1.0);
}

// §VI-B: CALM probes cost bandwidth but cut on-chip latency on COAXIAL.
TEST(PaperShapes, CalmTradesBandwidthForLatency) {
  auto serial = sys::coaxial_4x();
  serial.calm.policy = calm::Policy::kNone;
  const auto with_calm = run(sys::coaxial_4x(), "stream-copy");
  const auto without = run(serial, "stream-copy");
  EXPECT_LT(with_calm.avg_onchip_ns(), without.avg_onchip_ns());
  EXPECT_GE(with_calm.ipc_per_core, without.ipc_per_core * 0.97);
}

// §IV-D: read traffic dominates writes across the suite (R:W ~3.7:1 avg).
TEST(PaperShapes, ReadsDominateWrites) {
  double ratio_sum = 0;
  const std::vector<std::string> sample = {"lbm", "pagerank", "mcf", "kmeans",
                                           "fluidanimate"};
  for (const auto& wl : sample) {
    const auto st = run(sys::baseline_ddr(), wl);
    ratio_sum += st.read_gbps() / std::max(st.write_gbps(), 1e-9);
  }
  EXPECT_GT(ratio_sum / sample.size(), 2.0);
}

}  // namespace
}  // namespace coaxial
