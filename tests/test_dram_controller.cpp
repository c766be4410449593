#include "dram/controller.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "common/rng.hpp"

namespace coaxial::dram {
namespace {

/// Tick the controller until `token`'s completion appears or `deadline`
/// cycles pass. Returns the completion cycle (kNoCycle on timeout).
Cycle run_until_done(Controller& c, std::uint64_t token, Cycle start, Cycle deadline) {
  for (Cycle now = start; now < start + deadline; ++now) {
    c.tick(now);
    for (const auto& comp : c.completions()) {
      if (comp.token == token) {
        const Cycle done = comp.done;
        c.completions().clear();
        return done;
      }
    }
    c.completions().clear();
  }
  return kNoCycle;
}

TEST(DramController, UnloadedReadLatencyIsActPlusCas) {
  Timing t;
  Controller c(t, Geometry{});
  ASSERT_TRUE(c.enqueue(0, false, 10, 1));
  const Cycle done = run_until_done(c, 1, 10, 1000);
  ASSERT_NE(done, kNoCycle);
  // ACT at 11 (one cycle after enqueue tick), CAS after tRCD, data after
  // CL + BL: total ~= 1 + tRCD + CL + BL.
  const Cycle expected = t.rcd + t.cl + t.bl;
  EXPECT_GE(done - 10, expected);
  EXPECT_LE(done - 10, expected + 4);
}

TEST(DramController, RowHitIsFasterThanRowMiss) {
  Timing t;
  Controller c(t, Geometry{});
  c.enqueue(0, false, 10, 1);
  const Cycle first = run_until_done(c, 1, 10, 1000);
  ASSERT_NE(first, kNoCycle);
  // Second read to the same row (next column): row buffer hit.
  c.enqueue(1, false, first, 2);
  const Cycle second = run_until_done(c, 2, first, 1000);
  ASSERT_NE(second, kNoCycle);
  EXPECT_LT(second - first, t.rcd + t.cl + t.bl);
  EXPECT_GE(second - first, t.cl + t.bl);
  EXPECT_GE(c.stats().row_hits, 1u);
}

TEST(DramController, RowConflictPaysPrecharge) {
  Timing t;
  Geometry g;
  Controller c(t, g);
  c.enqueue(0, false, 10, 1);
  const Cycle first = run_until_done(c, 1, 10, 1000);
  // Same bank, different row: columns*banks lines ahead has the same
  // post-permutation bank only if the XOR fold matches; search for one.
  AddressMap amap(g);
  const Coord c0 = amap.map(0);
  Addr conflict_line = 0;
  for (Addr cand = g.columns * g.banks(); cand < g.columns * g.banks() * 64;
       cand += g.columns) {
    const Coord cc = amap.map(cand);
    if (cc.flat_bank(g) == c0.flat_bank(g) && cc.row != c0.row) {
      conflict_line = cand;
      break;
    }
  }
  ASSERT_NE(conflict_line, 0u);
  c.enqueue(conflict_line, false, first, 2);
  const Cycle second = run_until_done(c, 2, first, 2000);
  ASSERT_NE(second, kNoCycle);
  EXPECT_GE(second - first, t.rp + t.rcd + t.cl + t.bl);
  EXPECT_GE(c.stats().row_conflicts, 1u);
}

TEST(DramController, WriteToReadForwarding) {
  Controller c(Timing{}, Geometry{});
  c.enqueue(42, true, 10, 0);
  c.enqueue(42, false, 11, 7);
  // The read must complete almost immediately from the write queue.
  bool found = false;
  for (const auto& comp : c.completions()) {
    if (comp.token == 7) {
      EXPECT_LE(comp.done, 12u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(c.stats().reads_forwarded, 1u);
}

TEST(DramController, WritesEventuallyDrain) {
  Controller c(Timing{}, Geometry{});
  for (std::uint64_t i = 0; i < 40; ++i) c.enqueue(i * 7, true, 10, 0);
  for (Cycle now = 10; now < 20000; ++now) {
    c.tick(now);
    c.completions().clear();
  }
  EXPECT_EQ(c.stats().writes_done, 40u);
  EXPECT_EQ(c.write_queue_size(), 0u);
}

TEST(DramController, ReadsPrioritizedOverWritesBelowWatermark) {
  Controller c(Timing{}, Geometry{});
  for (std::uint64_t i = 0; i < 8; ++i) c.enqueue(1000 + i * 300, true, 10, 0);
  c.enqueue(0, false, 10, 99);
  const Cycle done = run_until_done(c, 99, 10, 2000);
  ASSERT_NE(done, kNoCycle);
  // The read must not wait for all eight writes (8 conflict writes would
  // take far longer than one read's ACT+CAS).
  EXPECT_LE(done - 10, 400u);
}

TEST(DramController, BackpressureWhenQueueFull) {
  Controller c(Timing{}, Geometry{}, /*read_queue_depth=*/4, /*write_queue_depth=*/4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(c.enqueue(i * 1000, false, 10, i));
  }
  EXPECT_FALSE(c.can_accept(false));
  EXPECT_FALSE(c.enqueue(9999, false, 10, 50));
  EXPECT_TRUE(c.can_accept(true));  // Write queue independent.
}

TEST(DramController, RefreshHappensPeriodically) {
  Timing t;
  Controller c(t, Geometry{});
  const Cycle horizon = t.refi * 5 + 1000;
  for (Cycle now = 1; now < horizon; ++now) {
    if (now % 500 == 0 && c.can_accept(false)) c.enqueue(now, false, now, now);
    c.tick(now);
    c.completions().clear();
  }
  EXPECT_GE(c.stats().refreshes, 4u);
  EXPECT_LE(c.stats().refreshes, 6u);
}

TEST(DramController, AllReadsCompleteUnderRandomLoad) {
  Controller c(Timing{}, Geometry{});
  Rng rng(5);
  std::set<std::uint64_t> outstanding;
  std::uint64_t next_token = 1;
  Cycle now = 1;
  std::uint64_t issued = 0;
  while (issued < 2000 || !outstanding.empty()) {
    if (issued < 2000 && rng.chance(0.1) && c.can_accept(false)) {
      c.enqueue(rng.next_below(1 << 24), false, now, next_token);
      outstanding.insert(next_token++);
      ++issued;
    }
    c.tick(now);
    for (const auto& comp : c.completions()) {
      ASSERT_EQ(outstanding.erase(comp.token), 1u) << "duplicate completion";
      EXPECT_GE(comp.done, now);
    }
    c.completions().clear();
    ++now;
    ASSERT_LT(now, 10'000'000u) << "reads starved";
  }
  EXPECT_EQ(c.stats().reads_done + c.stats().reads_forwarded, 2000u);
}

TEST(DramController, ServicePlusQueueEqualsTotalLatency) {
  Controller c(Timing{}, Geometry{});
  Rng rng(6);
  Cycle now = 1;
  double total_from_hist = 0;
  std::uint64_t done = 0;
  for (; done < 500; ++now) {
    if (rng.chance(0.15) && c.can_accept(false)) {
      c.enqueue(rng.next_below(1 << 20), false, now, now);
    }
    c.tick(now);
    done = c.stats().reads_done;
    c.completions().clear();
  }
  total_from_hist = c.read_latency_hist().mean() *
                    static_cast<double>(c.read_latency_hist().count());
  const double parts = c.stats().read_service_sum + c.stats().read_queue_delay_sum;
  // Forwarded reads enter the histogram but not the service/queue split.
  const double forwarded = static_cast<double>(c.stats().reads_forwarded);
  EXPECT_NEAR(parts + forwarded, total_from_hist, total_from_hist * 0.01 + 1);
}

TEST(DramController, DataBusUtilizationBounded) {
  Timing t;
  Controller c(t, Geometry{});
  Rng rng(8);
  const Cycle horizon = 200000;
  for (Cycle now = 1; now < horizon; ++now) {
    if (c.can_accept(false)) c.enqueue(rng.next_below(1 << 22), false, now, now);
    c.tick(now);
    c.completions().clear();
  }
  EXPECT_LE(c.stats().data_bus_busy_cycles, horizon);
  // Saturating offered load must achieve a decent fraction of the bus.
  EXPECT_GT(static_cast<double>(c.stats().data_bus_busy_cycles) / horizon, 0.4);
}

TEST(DramController, SequentialTrafficHasHighRowHitRate) {
  Controller c(Timing{}, Geometry{});
  Cycle now = 1;
  Addr line = 0;
  while (c.stats().reads_done < 2000) {
    if (c.can_accept(false)) {
      c.enqueue(line, false, now, line);
      ++line;
    }
    c.tick(now);
    c.completions().clear();
    ++now;
  }
  EXPECT_GT(c.stats().row_hit_rate(), 0.8);
}

TEST(DramController, RandomTrafficHasLowRowHitRate) {
  Controller c(Timing{}, Geometry{});
  Rng rng(10);
  Cycle now = 1;
  while (c.stats().reads_done < 2000) {
    if (c.can_accept(false)) c.enqueue(rng.next_u64() >> 24, false, now, now);
    c.tick(now);
    c.completions().clear();
    ++now;
  }
  EXPECT_LT(c.stats().row_hit_rate(), 0.2);
}

class DramLoadLatency : public ::testing::TestWithParam<double> {};

TEST_P(DramLoadLatency, LatencyGrowsWithLoad) {
  // Property: average latency at load p must be >= latency at load p/2.
  auto measure = [](double arrival_prob) {
    Controller c(Timing{}, Geometry{});
    Rng rng(12);
    for (Cycle now = 1; now < 150000; ++now) {
      if (rng.chance(arrival_prob) && c.can_accept(false)) {
        c.enqueue(rng.next_u64() >> 24, false, now, now);
      }
      c.tick(now);
      c.completions().clear();
    }
    return c.read_latency_hist().mean();
  };
  const double p = GetParam();
  EXPECT_GE(measure(p) * 1.02, measure(p / 2));
}

INSTANTIATE_TEST_SUITE_P(Loads, DramLoadLatency, ::testing::Values(0.02, 0.05, 0.08));

TEST(DramController, IdleControllerDoesNothing) {
  Controller c(Timing{}, Geometry{});
  for (Cycle now = 1; now < 1000; ++now) c.tick(now);
  EXPECT_TRUE(c.idle());
  EXPECT_EQ(c.stats().reads_done, 0u);
  EXPECT_EQ(c.stats().activates, 0u);
}

TEST(DramController, ResetStatsClearsCountersOnly) {
  Controller c(Timing{}, Geometry{});
  c.enqueue(0, false, 1, 1);
  run_until_done(c, 1, 1, 1000);
  EXPECT_GT(c.stats().reads_done, 0u);
  c.reset_stats();
  EXPECT_EQ(c.stats().reads_done, 0u);
  EXPECT_EQ(c.read_latency_hist().count(), 0u);
}

TEST(DramController, ActivatesMatchRowMissesPlusConflicts) {
  Controller c(Timing{}, Geometry{});
  Rng rng(14);
  Cycle now = 1;
  while (c.stats().reads_done < 1000) {
    if (rng.chance(0.05) && c.can_accept(false)) {
      c.enqueue(rng.next_below(1 << 18), false, now, now);
    }
    c.tick(now);
    c.completions().clear();
    ++now;
  }
  // Every serviced non-hit needs an ACT; idle precharge may add a few PREs
  // but ACT count should be within the classified non-hit arrivals.
  EXPECT_GT(c.stats().activates, 0u);
  EXPECT_LE(c.stats().activates,
            c.stats().row_misses + c.stats().row_conflicts + c.stats().refreshes + 64);
}

// The scheduler packs each queued request's bank into 16 bits and its
// rank x bank-group index into 8; geometries past either width are refused
// up front rather than silently aliasing banks.
TEST(DramController, RejectsMoreBanksThanTheScanKeyHolds) {
  Geometry g;
  g.banks_per_group = 4096;  // 8 x 4096 = 32768 banks per rank.
  g.ranks = 4;               // 131072 banks in all.
  EXPECT_THROW(Controller(Timing{}, g), std::invalid_argument);
  g.ranks = 2;  // Exactly 65536 banks: the widest geometry that fits.
  EXPECT_NO_THROW(Controller(Timing{}, g));
}

TEST(DramController, RejectsMoreRankGroupsThanTheScanKeyHolds) {
  Geometry g;
  g.bank_groups = 128;
  g.banks_per_group = 1;
  g.ranks = 4;  // 512 rank x bank-group pairs.
  EXPECT_THROW(Controller(Timing{}, g), std::invalid_argument);
  g.ranks = 2;  // Exactly 256: fits, and the top pair must be schedulable.
  Controller c(Timing{}, g);
  // Rank 1, bank group 127: flat bank 255, rank-group index 255.
  const Addr line = static_cast<Addr>(g.columns) * (g.banks() + g.banks() - 1);
  ASSERT_TRUE(c.enqueue(line, false, 1, 9));
  EXPECT_NE(run_until_done(c, 9, 1, 1000), kNoCycle);
  EXPECT_EQ(c.check_mirrors(), "");
  EXPECT_EQ(c.timing_checker().violations(), 0u);
}

}  // namespace
}  // namespace coaxial::dram
