// Host phase profiler: inertness when disabled (the default), inclusive
// nested-scope accounting, and opt-in publication under host/prof/*.
//
// The load-bearing property is the first one: with the profiler compiled in
// but disabled, runs must stay byte-identical to each other and must not
// grow a host/prof subtree — the golden baseline depends on it.
#include <string>

#include <gtest/gtest.h>

#include "obs/profiler.hpp"
#include "sim/runner.hpp"

namespace coaxial {
namespace {

using obs::prof::Phase;
using obs::prof::ScopedTimer;

/// Restores the global enable flag so tests can't leak state at each other.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::prof::reset_thread_totals(); }
  void TearDown() override {
    obs::prof::set_enabled(false);
    obs::prof::reset_thread_totals();
  }
};

sim::RunRequest small_request() {
  return sim::homogeneous(sys::baseline_ddr(), "canneal", /*warmup=*/100,
                          /*measure=*/500, /*seed=*/7);
}

TEST_F(ProfilerTest, DisabledScopesAreInert) {
  obs::prof::set_enabled(false);
  {
    ScopedTimer a(Phase::kCoreTick);
    ScopedTimer b(Phase::kCacheAccess);
    ScopedTimer c(Phase::kCoreTick);  // Re-entrant while disabled.
  }
  const obs::prof::Totals t = obs::prof::thread_totals();
  for (std::size_t i = 0; i < obs::prof::kPhaseCount; ++i) {
    EXPECT_EQ(t.ns[i], 0u);
    EXPECT_EQ(t.calls[i], 0u);
  }
}

TEST_F(ProfilerTest, SetEnabledTakesEffectOnTheInlinePath) {
  // A scope reads the enable flag inline; flipping it between scopes must
  // switch the very next scope on, then off again.
  const auto idx = static_cast<std::size_t>(Phase::kWorkloadGen);
  obs::prof::set_enabled(false);
  { ScopedTimer t(Phase::kWorkloadGen); }
  EXPECT_EQ(obs::prof::thread_totals().calls[idx], 0u);

  obs::prof::set_enabled(true);
  EXPECT_TRUE(obs::prof::enabled());
  { ScopedTimer t(Phase::kWorkloadGen); }
  { ScopedTimer t(Phase::kWorkloadGen); }
  EXPECT_EQ(obs::prof::thread_totals().calls[idx], 2u);

  obs::prof::set_enabled(false);
  EXPECT_FALSE(obs::prof::enabled());
  { ScopedTimer t(Phase::kWorkloadGen); }
  EXPECT_EQ(obs::prof::thread_totals().calls[idx], 2u);
}

TEST_F(ProfilerTest, StatsJsonByteIdenticalWithProfilerCompiledInButOff) {
  obs::prof::set_enabled(false);
  const std::string a = sim::stats_json(sim::run_one(small_request()));
  const std::string b = sim::stats_json(sim::run_one(small_request()));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("host/prof"), std::string::npos);
}

TEST_F(ProfilerTest, ProfSubtreeOnlyUnderOptIn) {
  obs::prof::set_enabled(false);
  const sim::RunResult off = sim::run_one(small_request());
  obs::prof::set_enabled(true);
  const sim::RunResult on = sim::run_one(small_request());
  obs::prof::set_enabled(false);

  bool saw_prof = false;
  obs::Snapshot on_stripped;
  for (const auto& [path, value] : on.metrics) {
    if (path.rfind("host/prof/", 0) == 0) {
      saw_prof = true;
      continue;
    }
    on_stripped.emplace(path, value);
  }
  EXPECT_TRUE(saw_prof) << "enabled run must publish host/prof/*";
  EXPECT_TRUE(on.metrics.count("host/prof/core_tick/ns"));
  EXPECT_TRUE(on.metrics.count("host/prof/dram_try_issue/calls"));
  for (const auto& [path, value] : off.metrics) {
    EXPECT_EQ(path.rfind("host/prof/", 0), std::string::npos)
        << "disabled run leaked " << path;
  }

  // Enabling the profiler must not perturb the simulation: every simulated
  // metric matches the disabled run exactly.
  ASSERT_EQ(on_stripped.size(), off.metrics.size());
  auto it = off.metrics.begin();
  for (const auto& [path, value] : on_stripped) {
    EXPECT_EQ(path, it->first);
    if (value.integral) {
      EXPECT_EQ(value.count, it->second.count) << path;
    } else {
      EXPECT_DOUBLE_EQ(value.value, it->second.value) << path;
    }
    ++it;
  }
}

TEST_F(ProfilerTest, CallsCountEveryEntryNsCountOutermostOnly) {
  obs::prof::set_enabled(true);
  obs::prof::reset_thread_totals();
  {
    ScopedTimer outer(Phase::kCoreTick);
    {
      ScopedTimer inner(Phase::kCoreTick);  // Re-entrant: counted, not timed.
      ScopedTimer other(Phase::kCacheAccess);
      volatile std::uint64_t sink = 0;
      for (int i = 0; i < 10000; ++i) sink = sink + static_cast<std::uint64_t>(i);
    }
  }
  const obs::prof::Totals t = obs::prof::thread_totals();
  const auto core = static_cast<std::size_t>(Phase::kCoreTick);
  const auto cache = static_cast<std::size_t>(Phase::kCacheAccess);
  EXPECT_EQ(t.calls[core], 2u);
  EXPECT_EQ(t.calls[cache], 1u);
  // Inclusive accounting: the outer kCoreTick span contains the kCacheAccess
  // span, and the re-entrant inner scope added no second measurement.
  EXPECT_GE(t.ns[core], t.ns[cache]);
}

TEST_F(ProfilerTest, ThreadTotalsDeltaBracketsARegion) {
  obs::prof::set_enabled(true);
  obs::prof::reset_thread_totals();
  { ScopedTimer s(Phase::kMemPump); }
  const obs::prof::Totals base = obs::prof::thread_totals();
  { ScopedTimer s(Phase::kMemPump); }
  { ScopedTimer s(Phase::kMemPump); }
  const obs::prof::Totals d = obs::prof::thread_totals().delta_since(base);
  EXPECT_EQ(d.calls[static_cast<std::size_t>(Phase::kMemPump)], 2u);
}

// A switched pool runs the quantum engine but keeps the per-cycle switched
// pump's profile shape: memory, fabric and link phases at the top level and
// no shard phase. A direct pool opens the shard phases.
TEST_F(ProfilerTest, PooledRunsOpenShardPhasesOnDirectFabricsOnly) {
  const auto calls = [](const sim::RunResult& r, const std::string& phase) {
    return r.metrics.at("host/prof/" + phase + "/calls").count;
  };
  const auto profiled = [](const pool::PoolConfig& cfg) {
    sim::RunRequest req;
    req.pool = cfg;
    req.warmup_instr = 300;
    req.measure_instr = 1'500;
    req.seed = 7;
    req.shards = 2;
    obs::prof::set_enabled(true);
    sim::RunResult r = sim::run_one(req);
    obs::prof::set_enabled(false);
    return r;
  };
  const sim::RunResult direct = profiled(sys::coaxial_pooled(2));
  EXPECT_GT(calls(direct, "shard/pump"), 0u);
  EXPECT_GT(calls(direct, "shard/mailbox_drain"), 0u);

  const sim::RunResult star = profiled(sys::coaxial_pooled_switched(2));
  EXPECT_EQ(calls(star, "shard/pump"), 0u);
  EXPECT_EQ(calls(star, "shard/barrier_wait"), 0u);
  EXPECT_EQ(calls(star, "shard/mailbox_drain"), 0u);
  EXPECT_GT(calls(star, "dram_tick"), 0u);
  EXPECT_GT(calls(star, "fabric_arb"), 0u);
}

// Open-loop service runs publish their profile like the other two drivers:
// run_one times every driver's run() in one place.
TEST_F(ProfilerTest, ServiceRunsPublishTheirProfile) {
  sim::RunRequest req;
  req.config = sys::coaxial_4x();
  req.service.measure_cycles = 5'000;
  sim::ServiceTenant tenant;
  tenant.arrival.offered_load = 0.3;
  req.service.tenants.push_back(tenant);
  req.seed = 7;
  obs::prof::set_enabled(true);
  const sim::RunResult r = sim::run_one(req);
  obs::prof::set_enabled(false);
  ASSERT_TRUE(r.open_loop);
  ASSERT_TRUE(r.metrics.count("host/prof/dram_tick/calls"));
  EXPECT_GT(r.metrics.at("host/prof/dram_tick/calls").count, 0u);
  EXPECT_TRUE(r.metrics.count("host/prof/dram_tick/ns"));
}

}  // namespace
}  // namespace coaxial
