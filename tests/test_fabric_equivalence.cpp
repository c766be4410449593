// Event-driven-vs-forced equivalence for the switched-fabric topologies:
// the conservative Switch/SerialPipe wake bounds must make a skipping run
// byte-identical to lockstep ticking, including every fabric/* metric.
// Lives in the `invariant` label so the ASan CI pass runs it.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"
#include "obs/stats_json.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace coaxial::sim {
namespace {

std::string run_document(const sys::SystemConfig& cfg, const std::string& wl,
                         bool forced, Cycle* end_cycle) {
  std::vector<workload::WorkloadParams> per_core(cfg.uarch.cores,
                                                 workload::find_workload(wl));
  System s(cfg, per_core, /*seed=*/7);
  if (forced) s.set_tick_every_cycle(true);
  s.run(/*warmup_instr=*/500, /*measure_instr=*/2000);
  *end_cycle = s.now();
  return obs::json::snapshot_to_json(s.metrics().snapshot());
}

void expect_modes_equivalent(const sys::SystemConfig& cfg, const std::string& wl) {
  Cycle end_event = 0, end_forced = 0;
  const std::string doc_event = run_document(cfg, wl, false, &end_event);
  const std::string doc_forced = run_document(cfg, wl, true, &end_forced);
  EXPECT_EQ(end_event, end_forced) << cfg.name << "/" << wl;
  EXPECT_EQ(doc_event, doc_forced) << cfg.name << "/" << wl;
}

/// One active core leaves the switch idle between messages, so a response
/// or watchdog reissue sent after the planes ticked must arm its own wake.
void expect_one_core_modes_equivalent(sys::SystemConfig cfg) {
  cfg.uarch.active_cores = 1;
  for (const char* wl : {"gcc", "mcf", "canneal"}) expect_modes_equivalent(cfg, wl);
}

TEST(FabricEquivalence, StarMatchesForcedTicking) {
  expect_modes_equivalent(sys::coaxial_star(8, 4), "lbm");
  expect_one_core_modes_equivalent(sys::coaxial_star(8, 4));
  sys::SystemConfig ras = sys::coaxial_star(8, 4);
  ras.uarch.active_cores = 1;
  ras.fault_plan = sys::ras_stress();
  expect_modes_equivalent(ras, "gcc");
}

TEST(FabricEquivalence, TreeMatchesForcedTicking) {
  expect_modes_equivalent(sys::coaxial_tree(8, 4, 2), "stream-copy");
  expect_one_core_modes_equivalent(sys::coaxial_tree(8, 4, 2));
}

TEST(FabricEquivalence, StarLineInterleaveMatchesForcedTicking) {
  // Per-line interleaving maximises cross-device churn through the switch.
  sys::SystemConfig cfg = sys::coaxial_star(8, 4);
  cfg.fabric.interleave = fabric::Interleave::kLine;
  expect_modes_equivalent(cfg, "mcf");
}

}  // namespace
}  // namespace coaxial::sim
