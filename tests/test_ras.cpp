// RAS layer: deterministic fault injection, link-level retry/replay, poison
// propagation, watchdog reissue, and graceful degradation (DESIGN.md §7).
//
// The load-bearing properties:
//   * a fixed seed + active fault plan is byte-identical across runs and
//     across the event-driven vs forced-lockstep scheduler modes;
//   * a disabled plan is inert — the stats document matches a build that
//     never heard of RAS (golden baselines stay byte-for-byte unchanged);
//   * retry exhaustion delivers a message poisoned exactly once, and the
//     poison propagates end-to-end to a core machine check;
//   * the timeout watchdog never duplicates or drops a request (duplicates
//     die at device ingress; DRAM services each read exactly once).
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"
#include "coaxial/memory_system.hpp"
#include "link/cxl_link.hpp"
#include "link/lane_config.hpp"
#include "link/serial_pipe.hpp"
#include "obs/stats_json.hpp"
#include "ras/fault_injector.hpp"
#include "ras/fault_plan.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace coaxial {
namespace {

// ---------------------------------------------------------------- validation

TEST(RasValidation, FaultPlanRejectsDegenerateValues) {
  ras::FaultPlan p;
  p.bit_error_rate = 2.0;  // Out of [0, 1].
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = {};
  p.bit_error_rate = 1e-6;
  p.retry_budget = 0;  // CRC faults need a replay budget.
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = {};
  p.burst_period_cycles = 100;
  p.burst_len_cycles = 0;  // Window must be non-empty ...
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.burst_len_cycles = 100;  // ... and strictly inside the period.
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = {};
  p.stall_period_cycles = 50;
  p.stall_len_cycles = 50;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = {};
  p.timeout_cycles = 1000;
  p.max_reissues = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.max_reissues = 2;
  p.backoff_cap_cycles = 500;  // Cap below the base timeout.
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = {};
  p.retry_latency_ns = std::nan("");
  EXPECT_THROW(p.validate(), std::invalid_argument);

  EXPECT_NO_THROW(ras::FaultPlan{}.validate());
  EXPECT_NO_THROW(sys::ras_crc_noise().validate());
  EXPECT_NO_THROW(sys::ras_flaky_device().validate());
  EXPECT_NO_THROW(sys::ras_downtrain().validate());
  EXPECT_NO_THROW(sys::ras_stress().validate());
}

TEST(RasValidation, LaneConfigRejectsBadGoodput) {
  link::LaneConfig bad = link::LaneConfig::x8();
  bad.rx_goodput_gbps = std::nan("");
  EXPECT_THROW(link::CxlLink{bad}, std::invalid_argument);
  bad = link::LaneConfig::x8();
  bad.tx_goodput_gbps = -1.0;
  EXPECT_THROW(link::CxlLink{bad}, std::invalid_argument);
  bad = link::LaneConfig::x8();
  bad.port_latency_ns = -0.5;
  EXPECT_THROW(link::CxlLink{bad}, std::invalid_argument);
  EXPECT_THROW(link::CxlLink(link::LaneConfig::x8(), /*max_backlog_cycles=*/0),
               std::invalid_argument);
}

TEST(RasValidation, FabricConfigRejectsBadSwitchParameters) {
  fabric::FabricConfig fab = fabric::FabricConfig::star(8, 4);
  fab.switch_queue_depth = 0;
  EXPECT_THROW(mem::CxlMemory(fab, 4, 1, link::LaneConfig::x8()),
               std::invalid_argument);
  fab = fabric::FabricConfig::star(8, 4);
  fab.switch_max_backlog_cycles = 0;
  EXPECT_THROW(mem::CxlMemory(fab, 4, 1, link::LaneConfig::x8()),
               std::invalid_argument);
  fab = fabric::FabricConfig::star(8, 4);
  fab.switch_port_ns = std::nan("");
  EXPECT_THROW(mem::CxlMemory(fab, 4, 1, link::LaneConfig::x8()),
               std::invalid_argument);
}

// ------------------------------------------------------- SerialPipe retries

TEST(SerialPipeRas, RetryExhaustionPoisonsExactlyOnce) {
  // BER = 1 corrupts every transmission: the pipe burns the whole replay
  // budget and delivers the message poisoned, with exact occupancy math.
  ras::FaultPlan plan;
  plan.bit_error_rate = 1.0;
  plan.retry_budget = 3;
  plan.retry_latency_ns = 100.0;

  link::SerialPipe pipe(/*goodput_gbps=*/32.0, /*fixed_latency_cycles=*/10,
                        /*max_backlog_cycles=*/10'000, "test/pipe");
  pipe.arm_faults(plan);

  const Cycle ser = serialization_cycles(32.0, kLineBytes);
  const Cycle premium = plan.retry_premium_cycles();
  const link::SendResult r = pipe.send(kLineBytes, /*now=*/0);
  EXPECT_TRUE(r.poisoned);
  // 1 original + 3 replays serialised, 3 retry premiums, then fixed latency.
  EXPECT_EQ(r.at, 4 * ser + 3 * premium + 10);

  ASSERT_NE(pipe.ras(), nullptr);
  EXPECT_EQ(pipe.ras()->crc_errors, 4u);  // All four transmissions corrupted.
  EXPECT_EQ(pipe.ras()->replays, 3u);
  EXPECT_EQ(pipe.ras()->poisons_injected, 1u);
}

TEST(SerialPipeRas, CleanPlanAndUnarmedPipeAgree) {
  link::SerialPipe plain(32.0, 10, 10'000, "a");
  link::SerialPipe armed(32.0, 10, 10'000, "b");
  ras::FaultPlan inert;  // enabled() == false: arm_faults is a no-op.
  armed.arm_faults(inert);
  for (Cycle now : {0, 7, 100}) {
    const link::SendResult pr = plain.send(kLineBytes, now);
    const link::SendResult ar = armed.send(kLineBytes, now);
    EXPECT_EQ(pr.at, ar.at);
    EXPECT_FALSE(ar.poisoned);
  }
  EXPECT_EQ(armed.ras(), nullptr);
}

TEST(SerialPipeRas, DowntrainHalvesGoodputFromConfiguredCycle) {
  ras::FaultPlan plan;
  plan.downtrain_at_cycle = 1'000;
  link::SerialPipe pipe(26.0, 10, 100'000, "downtrain/pipe");
  pipe.arm_faults(plan);

  const Cycle ser_full = serialization_cycles(26.0, kLineBytes);
  const Cycle ser_half = serialization_cycles(13.0, kLineBytes);
  EXPECT_FALSE(pipe.degraded(999));
  EXPECT_EQ(pipe.send(kLineBytes, 0).at, ser_full + 10);
  EXPECT_TRUE(pipe.degraded(1'000));
  const Cycle before = pipe.backlog(2'000);
  EXPECT_EQ(pipe.send(kLineBytes, 2'000).at, 2'000 + before + ser_half + 10);
  ASSERT_NE(pipe.ras(), nullptr);
  EXPECT_EQ(pipe.ras()->degraded_cycles, ser_half);
}

TEST(SerialPipeRas, DrawStreamsAreKeyedBySegmentName) {
  // Same plan, different names => independent fault streams; same name =>
  // identical streams regardless of construction order.
  ras::FaultPlan plan;
  plan.bit_error_rate = 1e-3;
  plan.retry_budget = 8;
  ras::SegmentFaults a(plan, "fabric/sw00/down");
  ras::SegmentFaults b(plan, "fabric/sw00/down");
  ras::SegmentFaults c(plan, "fabric/sw00/up");
  bool diverged = false;
  for (int i = 0; i < 512; ++i) {
    const bool av = a.corrupt(kLineBytes, 0);
    EXPECT_EQ(av, b.corrupt(kLineBytes, 0));
    diverged = diverged || (av != c.corrupt(kLineBytes, 0));
  }
  EXPECT_TRUE(diverged);
}

TEST(SerialPipeRas, PipeNamesFollowOwningSegment) {
  const link::CxlLink link(link::LaneConfig::x8(), 512, {}, "cxl/link03");
  EXPECT_EQ(link.tx_pipe().name(), "cxl/link03/tx");
  EXPECT_EQ(link.rx_pipe().name(), "cxl/link03/rx");
  const link::CxlLink anon(link::LaneConfig::x8());
  EXPECT_EQ(anon.tx_pipe().name(), "cxl-link/tx");
}

// ------------------------------------------------ CxlMemory poison delivery

TEST(CxlMemoryRas, ExhaustedRetriesPoisonEveryCompletionExactlyOnce) {
  // BER = 1 with a budget of 1: every request and response exhausts its
  // replays, so every read completion arrives poisoned — and only once.
  ras::FaultPlan plan;
  plan.bit_error_rate = 1.0;
  plan.retry_budget = 1;
  plan.retry_latency_ns = 10.0;
  mem::CxlMemory m(fabric::FabricConfig::direct(), /*cxl_channels=*/1,
                   /*ddr_per_device=*/1, link::LaneConfig::x8(), {}, {}, {}, plan);

  constexpr int kReads = 20;
  std::map<std::uint64_t, int> seen;
  int issued = 0;
  Cycle now = 0;
  while (static_cast<int>(seen.size()) < kReads) {
    ASSERT_LT(now, 10'000'000u) << "reads starved";
    if (issued < kReads && m.can_accept(issued, false, now)) {
      m.access(issued, false, now, static_cast<std::uint64_t>(issued));
      ++issued;
    }
    m.tick(now);
    for (const auto& c : m.completions()) {
      EXPECT_TRUE(c.poisoned) << "token " << c.token;
      ++seen[c.token];
    }
    m.completions().clear();
    ++now;
  }
  for (const auto& [token, count] : seen) {
    EXPECT_EQ(count, 1) << "token " << token;
  }
  // Exactly one poison injection per message: kReads requests on TX plus
  // kReads responses on RX.
  EXPECT_EQ(m.ras_counters().poisons_injected, 2u * kReads);
  EXPECT_EQ(m.snapshot().reads, static_cast<std::uint64_t>(kReads));
}

// --------------------------------------------- watchdog + stall conservation

TEST(CxlMemoryRas, WatchdogNeverDuplicatesOrDropsRequests) {
  // A flaky device with stall windows longer than the watchdog timeout:
  // deadlines expire, duplicates are reissued with backoff, and yet every
  // read completes exactly once and DRAM services each line exactly once.
  ras::FaultPlan plan;
  plan.stall_period_cycles = 4'000;
  plan.stall_len_cycles = 3'000;
  plan.timeout_cycles = 800;
  plan.max_reissues = 4;
  plan.backoff_cap_cycles = 8'000;
  mem::CxlMemory m(fabric::FabricConfig::direct(), /*cxl_channels=*/1,
                   /*ddr_per_device=*/1, link::LaneConfig::x8(), {}, {}, {}, plan);

  constexpr int kReads = 40;
  std::map<std::uint64_t, int> seen;
  int issued = 0;
  Cycle now = 0;
  while (static_cast<int>(seen.size()) < kReads) {
    ASSERT_LT(now, 10'000'000u) << "reads starved";
    if (issued < kReads && m.can_accept(issued * 7, false, now)) {
      m.access(issued * 7, false, now, static_cast<std::uint64_t>(issued));
      ++issued;
    }
    m.tick(now);
    for (const auto& c : m.completions()) ++seen[c.token];
    m.completions().clear();
    ++now;
  }
  // Drain stragglers (in-flight duplicates die at device ingress).
  for (Cycle end = now + 50'000; now < end; ++now) {
    m.tick(now);
    m.completions().clear();
  }

  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kReads));
  for (const auto& [token, count] : seen) {
    EXPECT_EQ(count, 1) << "token " << token;
  }
  const ras::RasCounters ras = m.ras_counters();
  EXPECT_GT(ras.timeouts, 0u);
  EXPECT_GT(ras.backoff_retries, 0u);
  // Every duplicate ever reissued was dropped at device ingress — DRAM
  // never saw one.
  EXPECT_EQ(ras.dup_drops, ras.backoff_retries);
  const dram::ControllerStats dram = m.aggregate_dram_stats();
  EXPECT_EQ(dram.reads_done + dram.reads_forwarded,
            static_cast<std::uint64_t>(kReads));
  EXPECT_EQ(m.snapshot().reads, static_cast<std::uint64_t>(kReads));
}

// -------------------------------------------------- System-level properties

std::string run_document(const sys::SystemConfig& cfg, const std::string& wl,
                         bool forced, obs::Snapshot* snap = nullptr) {
  std::vector<workload::WorkloadParams> per_core(cfg.uarch.cores,
                                                 workload::find_workload(wl));
  sim::System s(cfg, per_core, /*seed=*/7);
  if (forced) s.set_tick_every_cycle(true);
  s.run(/*warmup_instr=*/500, /*measure_instr=*/2000);
  if (snap != nullptr) *snap = s.metrics().snapshot();
  return obs::json::snapshot_to_json(s.metrics().snapshot());
}

TEST(SystemRas, SameSeedSamePlanIsByteIdentical) {
  sys::SystemConfig cfg = sys::coaxial_4x();
  cfg.fault_plan = sys::ras_stress();
  cfg.fault_plan.downtrain_at_cycle = 5'000;  // Inside this short run.
  obs::Snapshot snap;
  const std::string a = run_document(cfg, "mcf", /*forced=*/false, &snap);
  const std::string b = run_document(cfg, "mcf", /*forced=*/false);
  EXPECT_EQ(a, b);
  // The active plan registered the ras/* subtree and faults actually fired.
  EXPECT_GT(snap.at("ras/crc_errors").count, 0u);
  EXPECT_GT(snap.at("ras/replays").count, 0u);
  EXPECT_GT(snap.at("ras/timeouts").count, 0u);
  EXPECT_GT(snap.at("ras/degraded_cycles").count, 0u);
}

TEST(SystemRas, DisabledPlanIsInert) {
  // A plan with no fault class active must leave the stats document — tree
  // shape and every value — identical to a config that never set one.
  const sys::SystemConfig vanilla = sys::coaxial_4x();
  sys::SystemConfig with_inert = sys::coaxial_4x();
  with_inert.fault_plan.seed = 0xDEADBEEF;  // Seed alone enables nothing.
  const std::string a = run_document(vanilla, "lbm", /*forced=*/false);
  const std::string b = run_document(with_inert, "lbm", /*forced=*/false);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("\"ras\""), std::string::npos);
}

TEST(SystemRas, EventDrivenMatchesForcedTickingUnderFaults) {
  // Direct topology with the full stress plan (CRC bursts + flaky device +
  // watchdog + mid-run down-train): idle-cycle skipping must be
  // byte-identical to the lockstep reference loop.
  sys::SystemConfig cfg = sys::coaxial_4x();
  cfg.fault_plan = sys::ras_stress();
  const std::string ev = run_document(cfg, "mcf", /*forced=*/false);
  const std::string forced = run_document(cfg, "mcf", /*forced=*/true);
  EXPECT_EQ(ev, forced);
}

TEST(SystemRas, SwitchedFabricEquivalenceUnderFaults) {
  sys::SystemConfig cfg = sys::coaxial_star(8, 4);
  cfg.fault_plan = sys::ras_stress();
  const std::string ev = run_document(cfg, "lbm", /*forced=*/false);
  const std::string forced = run_document(cfg, "lbm", /*forced=*/true);
  EXPECT_EQ(ev, forced);
}

TEST(SystemRas, PoisonConsumptionFiresMachineChecks) {
  // Aggressive corruption with a tiny replay budget: poisoned lines reach
  // the hierarchy and demand consumers record machine checks. The aggregate
  // equals the per-core counters.
  sys::SystemConfig cfg = sys::coaxial_4x();
  cfg.fault_plan.bit_error_rate = 0.01;
  cfg.fault_plan.retry_budget = 2;
  cfg.fault_plan.retry_latency_ns = 10.0;
  obs::Snapshot snap;
  run_document(cfg, "mcf", /*forced=*/false, &snap);
  EXPECT_GT(snap.at("ras/poisons_injected").count, 0u);
  EXPECT_GT(snap.at("ras/poisons_consumed").count, 0u);
  std::uint64_t per_core = 0;
  for (std::uint32_t c = 0; c < cfg.uarch.cores; ++c) {
    per_core += snap.at("ras/core/" + obs::idx(c) + "/machine_checks").count;
  }
  EXPECT_EQ(snap.at("ras/poisons_consumed").count, per_core);
}

}  // namespace
}  // namespace coaxial
