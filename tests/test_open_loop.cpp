// Open-loop service traffic: arrival-process determinism and mean
// conservation, ServiceDriver seed determinism (byte-identical svc/*
// stats), event-driven vs lockstep equivalence, golden
// inertness when the mode is off, and the RunResult plumbing for mixed
// open/closed-loop batches.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"
#include "obs/stats_json.hpp"
#include "sim/runner.hpp"
#include "sim/service.hpp"
#include "workload/arrival.hpp"

namespace coaxial {
namespace {

using sim::ServiceConfig;
using sim::ServiceDriver;
using sim::ServiceTenant;
using workload::ArrivalConfig;
using workload::ArrivalGenerator;
using workload::ArrivalProcessKind;

// ------------------------------------------------------- arrival processes

TEST(ArrivalGenerator, SameSeedSameStream) {
  ArrivalConfig cfg;
  cfg.offered_load = 0.5;
  cfg.write_fraction = 0.3;
  ArrivalGenerator a(cfg, 0.05, /*tenant=*/2, /*seed=*/99);
  ArrivalGenerator b(cfg, 0.05, /*tenant=*/2, /*seed=*/99);
  for (int i = 0; i < 10'000; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    ASSERT_EQ(ra.at, rb.at);
    ASSERT_EQ(ra.line, rb.line);
    ASSERT_EQ(ra.is_write, rb.is_write);
  }
}

TEST(ArrivalGenerator, DifferentSeedOrTenantDiverges) {
  ArrivalConfig cfg;
  ArrivalGenerator a(cfg, 0.05, 0, 1);
  ArrivalGenerator b(cfg, 0.05, 0, 2);  // Different seed.
  ArrivalGenerator c(cfg, 0.05, 1, 1);  // Different tenant.
  bool diff_seed = false;
  bool diff_tenant = false;
  for (int i = 0; i < 1000; ++i) {
    const auto ra = a.next();
    if (ra.at != b.next().at) diff_seed = true;
    const auto rc = c.next();
    if (ra.at != rc.at || ra.line == rc.line) diff_tenant = true;
  }
  EXPECT_TRUE(diff_seed);
  EXPECT_TRUE(diff_tenant);
}

TEST(ArrivalGenerator, ArrivalTimesMonotoneAndAddressesInRegion) {
  ArrivalConfig cfg;
  cfg.process = ArrivalProcessKind::kMmpp;
  cfg.burst_multiplier = 8.0;
  cfg.burst_fraction = 0.1;
  cfg.mean_burst_cycles = 500;
  cfg.footprint_lines = 4096;
  ArrivalGenerator g(cfg, 0.1, /*tenant=*/3, /*seed=*/7);
  Cycle prev = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto r = g.next();
    ASSERT_GE(r.at, prev);
    prev = r.at;
    ASSERT_GE(r.line, g.region_base());
    ASSERT_LT(r.line, g.region_base() + cfg.footprint_lines);
  }
}

TEST(ArrivalGenerator, PoissonMeanRateConserved) {
  ArrivalConfig cfg;
  const double rate = 0.08;
  ArrivalGenerator g(cfg, rate, 0, 123);
  const int n = 400'000;
  Cycle last = 0;
  for (int i = 0; i < n; ++i) last = g.next().at;
  const double measured = static_cast<double>(n) / static_cast<double>(last);
  // Relative error of a mean of n exponentials ~ 1/sqrt(n) ~ 0.16%.
  EXPECT_NEAR(measured, rate, rate * 0.01);
}

TEST(ArrivalGenerator, MmppMeanRateConserved) {
  // The burst/calm split is shaped to preserve the configured mean rate;
  // run long enough to average over many burst episodes.
  ArrivalConfig cfg;
  cfg.process = ArrivalProcessKind::kMmpp;
  cfg.burst_multiplier = 6.0;
  cfg.burst_fraction = 0.2;
  cfg.mean_burst_cycles = 2000;
  const double rate = 0.08;
  ArrivalGenerator g(cfg, rate, 0, 321);
  const int n = 400'000;
  Cycle last = 0;
  for (int i = 0; i < n; ++i) last = g.next().at;
  const double measured = static_cast<double>(n) / static_cast<double>(last);
  EXPECT_NEAR(measured, rate, rate * 0.05);
}

TEST(ArrivalConfig, ValidatesDegenerateValues) {
  ArrivalConfig bad;
  bad.offered_load = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.write_fraction = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.process = ArrivalProcessKind::kMmpp;
  bad.burst_fraction = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.process = ArrivalProcessKind::kMmpp;
  bad.burst_multiplier = 0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// ---------------------------------------------------------- service driver

ServiceConfig small_service(double load, std::uint32_t tenants,
                            bool regulate = false) {
  ServiceConfig svc;
  svc.measure_cycles = 30'000;
  svc.regulate = regulate;
  for (std::uint32_t i = 0; i < tenants; ++i) {
    ServiceTenant t;
    t.arrival.offered_load = load / tenants;
    t.arrival.write_fraction = (i % 2 == 0) ? 0.0 : 0.2;
    t.arrival.footprint_lines = 1u << 16;
    svc.tenants.push_back(t);
  }
  return svc;
}

sim::RunRequest service_request(const sys::SystemConfig& cfg,
                                const ServiceConfig& svc, std::uint64_t seed) {
  sim::RunRequest req;
  req.config = cfg;
  req.service = svc;
  req.seed = seed;
  return req;
}

TEST(ServiceDriver, SameSeedByteIdenticalStats) {
  const auto req = service_request(sys::baseline_ddr(), small_service(0.6, 3), 11);
  const std::string a = sim::stats_json(sim::run_one(req));
  const std::string b = sim::stats_json(sim::run_one(req));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"svc\""), std::string::npos);
}

TEST(ServiceDriver, DifferentSeedDifferentStats) {
  const ServiceConfig svc = small_service(0.6, 2);
  const std::string a =
      sim::stats_json(sim::run_one(service_request(sys::baseline_ddr(), svc, 1)));
  const std::string b =
      sim::stats_json(sim::run_one(service_request(sys::baseline_ddr(), svc, 2)));
  EXPECT_NE(a, b);
}

void expect_mode_equivalence(const sys::SystemConfig& cfg, const ServiceConfig& svc) {
  ServiceDriver event_driven(cfg, svc, /*seed=*/5);
  ServiceDriver lockstep(cfg, svc, /*seed=*/5);
  lockstep.set_tick_every_cycle(true);
  event_driven.run();
  lockstep.run();
  const std::string a = obs::json::snapshot_to_json(event_driven.metrics().snapshot());
  const std::string b = obs::json::snapshot_to_json(lockstep.metrics().snapshot());
  EXPECT_EQ(a, b) << cfg.name << ": event-driven vs lockstep snapshots differ";
  EXPECT_GT(event_driven.stats().completed, 0u);
}

TEST(ServiceDriver, EventDrivenMatchesLockstepBaselineDdr) {
  expect_mode_equivalence(sys::baseline_ddr(), small_service(0.7, 3));
}

TEST(ServiceDriver, EventDrivenMatchesLockstepCxl) {
  expect_mode_equivalence(sys::coaxial_4x(), small_service(0.5, 4));
}

TEST(ServiceDriver, EventDrivenMatchesLockstepUnderRegulation) {
  // The regulator's lazy credit accrual must behave identically across
  // modes; an overcommitted bursty mix exercises denial paths hard.
  ServiceConfig svc = small_service(1.2, 3, /*regulate=*/true);
  svc.tenants[0].arrival.process = ArrivalProcessKind::kMmpp;
  svc.tenants[0].arrival.burst_multiplier = 8.0;
  svc.tenants[0].arrival.burst_fraction = 0.15;
  svc.tenants[0].arrival.mean_burst_cycles = 1000;
  expect_mode_equivalence(sys::baseline_ddr(), svc);
}

TEST(ServiceDriver, ConservationInvariants) {
  // With zero warmup: every generated request is either admitted or still
  // queued; admitted splits exactly into reads + writes; every admitted
  // read completes (the driver drains inflight before returning); the
  // histogram holds exactly the completed reads.
  ServiceDriver driver(sys::baseline_ddr(), small_service(1.1, 3), 77);
  driver.run();
  const sim::ServiceStats& s = driver.stats();
  EXPECT_GT(s.generated, 0u);
  EXPECT_EQ(s.admitted + s.backlog_at_end, s.generated);
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const obs::Snapshot snap = driver.metrics().snapshot();
    const std::string base = "svc/tenant/" + obs::idx(i);
    reads += snap.at(base + "/reads").count;
    writes += snap.at(base + "/writes").count;
  }
  EXPECT_EQ(reads + writes, s.admitted);
  EXPECT_EQ(s.completed, reads);
  EXPECT_EQ(driver.all_latency().count(), s.completed);
  EXPECT_EQ(s.mem.reads, reads);
}

TEST(ServiceDriver, WarmupGatesHistogramNotCounters) {
  ServiceConfig svc = small_service(0.5, 1);
  svc.warmup_cycles = 10'000;
  svc.measure_cycles = 20'000;
  ServiceDriver driver(sys::baseline_ddr(), svc, 3);
  driver.run();
  const sim::ServiceStats& s = driver.stats();
  // Completions whose arrival fell inside warmup are counted but not
  // latency-tracked.
  EXPECT_GT(s.completed, driver.all_latency().count());
  EXPECT_GT(driver.all_latency().count(), 0u);
}

TEST(ServiceDriver, RegulationThrottlesTheBully) {
  // One MMPP bully overcommitting against modest Poisson victims: with
  // regulation on, the bully must see credit denials and admit less than
  // it generates.
  ServiceConfig svc;
  svc.measure_cycles = 40'000;
  svc.regulate = true;
  ServiceTenant victim;
  victim.arrival.offered_load = 0.1;
  ServiceTenant bully;
  bully.arrival.offered_load = 1.0;
  bully.arrival.process = ArrivalProcessKind::kMmpp;
  bully.arrival.burst_multiplier = 8.0;
  bully.arrival.burst_fraction = 0.2;
  bully.arrival.mean_burst_cycles = 2000;
  svc.tenants = {victim, victim, bully};
  ServiceDriver driver(sys::baseline_ddr(), svc, 9);
  driver.run();
  const obs::Snapshot snap = driver.metrics().snapshot();
  EXPECT_GT(snap.at("svc/tenant/02/reg_stall_cycles").count, 0u);
  EXPECT_GT(snap.at("svc/tenant/02/backlog_at_end").count, 0u);
  // Victims stay under their fair share: regulation never starves them
  // (at most a transient handful queued at the horizon).
  EXPECT_LT(snap.at("svc/tenant/00/backlog_at_end").count,
            snap.at("svc/tenant/02/backlog_at_end").count);
  EXPECT_LE(snap.at("svc/tenant/00/backlog_at_end").count, 4u);
}

TEST(ServiceDriver, SloChecksEvaluatePerTenant) {
  ServiceConfig svc = small_service(0.3, 2);
  svc.tenants[0].slo = {{0.99, 1e9}};   // Absurdly loose: must pass.
  svc.tenants[1].slo = {{0.50, 1e-3}};  // Absurdly tight: must fail.
  ServiceDriver driver(sys::baseline_ddr(), svc, 21);
  driver.run();
  const auto& checks = driver.slo_checks();
  ASSERT_EQ(checks.size(), 2u);
  EXPECT_EQ(checks[0].tenant, 0u);
  EXPECT_TRUE(checks[0].pass);
  EXPECT_EQ(checks[1].tenant, 1u);
  EXPECT_FALSE(checks[1].pass);
  const obs::Snapshot snap = driver.metrics().snapshot();
  EXPECT_EQ(snap.at("svc/tenant/00/slo/00/pass").count, 1u);
  EXPECT_EQ(snap.at("svc/tenant/01/slo/00/pass").count, 0u);
  EXPECT_GT(snap.at("svc/tenant/00/slo/00/achieved_ns").value, 0.0);
}

// ------------------------------------------------- golden inertness & JSON

TEST(OpenLoop, ClosedLoopRunsHaveNoSvcSubtree) {
  // The golden baseline must stay byte-identical: a run without service
  // tenants registers nothing under svc/* and keeps the closed-loop
  // instruction-budget keys in its JSON document.
  auto req = sim::homogeneous(sys::baseline_ddr(), "canneal", 200, 500, 7);
  const sim::RunResult r = sim::run_one(req);
  EXPECT_FALSE(r.open_loop);
  for (const auto& [path, value] : r.metrics) {
    EXPECT_EQ(path.rfind("svc/", 0), std::string::npos) << path;
  }
  const std::string doc = sim::stats_json(r);
  EXPECT_NE(doc.find("\"warmup_instr\""), std::string::npos);
  EXPECT_EQ(doc.find("\"open_loop\""), std::string::npos);
  EXPECT_EQ(doc.find("\"svc\""), std::string::npos);
}

TEST(OpenLoop, OpenLoopRunsUseCycleHorizonKeys) {
  const auto req = service_request(sys::baseline_ddr(), small_service(0.4, 2), 7);
  const sim::RunResult r = sim::run_one(req);
  EXPECT_TRUE(r.open_loop);
  EXPECT_EQ(r.workload_name, "svc");
  const std::string doc = sim::stats_json(r);
  EXPECT_NE(doc.find("\"open_loop\""), std::string::npos);
  EXPECT_NE(doc.find("\"measure_cycles\""), std::string::npos);
  // Instruction budgets describe trace length per core — meaningless for a
  // time-horizon run, so they must not appear.
  EXPECT_EQ(doc.find("\"warmup_instr\""), std::string::npos);
  EXPECT_EQ(doc.find("\"measure_instr\""), std::string::npos);
}

TEST(OpenLoop, MixedOpenAndClosedLoopBatch) {
  // Regression for the RunResult plumbing: one batch may now mix
  // trace-length-bounded and time-horizon-bounded runs; each result must
  // carry its own budget fields and the batch document must be stable.
  std::vector<sim::RunRequest> requests;
  requests.push_back(sim::homogeneous(sys::baseline_ddr(), "canneal", 200, 500, 7));
  requests.push_back(service_request(sys::baseline_ddr(), small_service(0.5, 2), 7));
  requests.push_back(sim::homogeneous(sys::coaxial_4x(), "lbm", 200, 500, 7));
  const auto results = sim::run_many(requests, 2);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].open_loop);
  EXPECT_TRUE(results[1].open_loop);
  EXPECT_FALSE(results[2].open_loop);
  EXPECT_GT(results[0].stats.instructions, 0u);
  EXPECT_GT(results[1].service.completed, 0u);
  EXPECT_EQ(results[1].measure_cycles, 30'000u);
  const std::string doc_a = sim::stats_json(results);
  const std::string doc_b = sim::stats_json(sim::run_many(requests, 2));
  EXPECT_EQ(doc_a, doc_b);
}

}  // namespace
}  // namespace coaxial
