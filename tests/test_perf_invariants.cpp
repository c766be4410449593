// Equivalence tests for the host-performance fast paths.
//
// The controller's per-queue next-ready cache (see Controller::set_ready_cache)
// is a pure scan-skipping device: it may elide an FR-FCFS window rescan only
// when that scan provably cannot issue a command. These tests drive two
// controllers — cache on vs cache off — through identical fuzzed request
// streams (the same substrate as test_dram_invariants) in lockstep and demand
// bit-identical behaviour: the same wake bounds from every tick, the same
// completion stream (token, cycle, latency decomposition), the same command
// counts, and a silent shadow timing checker on both.
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "dram/controller.hpp"

namespace coaxial::dram {
namespace {

struct StreamParams {
  std::uint64_t seed = 1;
  double enqueue_prob = 0.5;   ///< Chance of an enqueue attempt per cycle.
  double write_frac = 0.3;
  Addr addr_space = 1 << 20;   ///< Local line addresses drawn from [0, N).
  Cycle cycles = 30000;
  bool sparse = false;  ///< Honour tick()'s wake bound (event-driven style).
};

/// Drives `fast` (ready cache on) and `slow` (ready cache off) with one
/// shared random stream. Every divergence is reported at the cycle it first
/// appears, which localises a broken cache-invalidation edge immediately.
void drive_pair(Controller& fast, Controller& slow, const StreamParams& p) {
  std::mt19937_64 rng(p.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<Addr> addr(0, p.addr_space - 1);
  std::uint64_t token = 0;
  Cycle wake = 0;  // Shared: asserted equal every tick.
  // Start at cycle 1: cycle 0 is indistinguishable from "never" in some of
  // the controller's next_* state.
  for (Cycle now = 1; now <= p.cycles; ++now) {
    bool enqueued = false;
    if (coin(rng) < p.enqueue_prob) {
      const bool is_write = coin(rng) < p.write_frac;
      const Addr line = addr(rng);
      ASSERT_EQ(fast.can_accept(is_write), slow.can_accept(is_write))
          << "cycle " << now;
      if (fast.can_accept(is_write)) {
        ASSERT_TRUE(fast.enqueue(line, is_write, now, token));
        ASSERT_TRUE(slow.enqueue(line, is_write, now, token));
        ++token;
        enqueued = true;
      }
    }
    // In sparse mode only tick when the controllers said something could
    // happen — the contract the event-driven System loop relies on. Both
    // controllers must publish the same bound, so one `wake` suffices.
    if (p.sparse && !enqueued && now < wake && !fast.idle()) continue;
    const Cycle wf = fast.tick(now);
    const Cycle ws = slow.tick(now);
    ASSERT_EQ(wf, ws) << "wake bound diverged at cycle " << now;
    wake = wf;
    auto& cf = fast.completions();
    auto& cs = slow.completions();
    ASSERT_EQ(cf.size(), cs.size()) << "completion count diverged at " << now;
    for (std::size_t i = 0; i < cf.size(); ++i) {
      ASSERT_EQ(cf[i].token, cs[i].token) << "cycle " << now;
      ASSERT_EQ(cf[i].done, cs[i].done) << "token " << cf[i].token;
      ASSERT_EQ(cf[i].service, cs[i].service) << "token " << cf[i].token;
      ASSERT_EQ(cf[i].queue_delay, cs[i].queue_delay) << "token " << cf[i].token;
    }
    cf.clear();
    cs.clear();
  }
}

void expect_same_stats(const Controller& fast, const Controller& slow) {
  const ControllerStats& a = fast.stats();
  const ControllerStats& b = slow.stats();
  EXPECT_EQ(a.reads_done, b.reads_done);
  EXPECT_EQ(a.writes_done, b.writes_done);
  EXPECT_EQ(a.reads_forwarded, b.reads_forwarded);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.activates, b.activates);
  EXPECT_EQ(a.precharges, b.precharges);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.data_bus_busy_cycles, b.data_bus_busy_cycles);
  EXPECT_DOUBLE_EQ(a.read_queue_delay_sum, b.read_queue_delay_sum);
  EXPECT_DOUBLE_EQ(a.read_service_sum, b.read_service_sum);
  EXPECT_EQ(fast.timing_checker().violations(), 0u);
  EXPECT_EQ(slow.timing_checker().violations(), 0u);
}

void run_case(const StreamParams& p) {
  const Timing timing;      // DDR5-4800 defaults.
  const Geometry geometry;  // 8 groups x 4 banks.
  Controller fast(timing, geometry);
  Controller slow(timing, geometry);
  slow.set_ready_cache(false);
  drive_pair(fast, slow, p);
  expect_same_stats(fast, slow);
  EXPECT_GT(fast.stats().reads_done, 0u) << "stream produced no reads";
}

TEST(PerfInvariants, ReadyCacheMatchesRescanOnRandomStreams) {
  for (std::uint64_t seed : {1ull, 42ull, 1337ull}) {
    StreamParams p;
    p.seed = seed;
    run_case(p);
  }
}

TEST(PerfInvariants, ReadyCacheMatchesRescanUnderHighLoad) {
  StreamParams p;
  p.seed = 7;
  p.enqueue_prob = 0.95;   // Saturated queues: write drain + refresh pressure.
  p.addr_space = 1 << 12;  // Small footprint: row hits, conflicts, forwarding.
  run_case(p);
}

TEST(PerfInvariants, ReadyCacheMatchesRescanWriteHeavy) {
  StreamParams p;
  p.seed = 99;
  p.write_frac = 0.8;  // Exercises drain-mode transitions and forwarding.
  run_case(p);
}

TEST(PerfInvariants, ReadyCacheMatchesRescanSparseTicks) {
  // Event-driven style: skip cycles the wake bound rules out, as System
  // does. The cache is populated by compute_wake on exactly these failed
  // scans, so this is the path production traffic takes.
  for (std::uint64_t seed : {3ull, 11ull}) {
    StreamParams p;
    p.seed = seed;
    p.sparse = true;
    run_case(p);
  }
}

TEST(PerfInvariants, ReadyCacheMatchesRescanLightTraffic) {
  // Long idle gaps: idle-precharge and refresh are the only activity, the
  // regime where a stale "nothing ready" cache entry would stall forever.
  StreamParams p;
  p.seed = 21;
  p.enqueue_prob = 0.02;
  p.cycles = 60000;
  run_case(p);
}

}  // namespace
}  // namespace coaxial::dram
