#include "cache/mshr.hpp"

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace coaxial::cache {
namespace {

TEST(Mshr, AllocatesNewEntry) {
  Mshr m(4);
  EXPECT_EQ(m.on_miss(10, 1), MshrOutcome::kAllocated);
  EXPECT_TRUE(m.holds(10));
  EXPECT_EQ(m.in_flight(), 1u);
}

TEST(Mshr, MergesSecondaryMiss) {
  Mshr m(4);
  m.on_miss(10, 1);
  EXPECT_EQ(m.on_miss(10, 2), MshrOutcome::kMerged);
  EXPECT_EQ(m.in_flight(), 1u);  // Still one entry.
  EXPECT_EQ(m.merged(), 1u);
}

TEST(Mshr, RejectsWhenFull) {
  Mshr m(2);
  m.on_miss(1, 1);
  m.on_miss(2, 2);
  EXPECT_TRUE(m.full());
  EXPECT_EQ(m.on_miss(3, 3), MshrOutcome::kFull);
  EXPECT_EQ(m.rejections(), 1u);
  // But merging into an existing entry still works at capacity.
  EXPECT_EQ(m.on_miss(1, 4), MshrOutcome::kMerged);
}

TEST(Mshr, FillReturnsAllWaitersInOrder) {
  Mshr m(4);
  m.on_miss(7, 100);
  m.on_miss(7, 200);
  m.on_miss(7, 300);
  const auto waiters = m.on_fill(7);
  ASSERT_EQ(waiters.size(), 3u);
  EXPECT_EQ(waiters[0], 100u);
  EXPECT_EQ(waiters[1], 200u);
  EXPECT_EQ(waiters[2], 300u);
  EXPECT_FALSE(m.holds(7));
  EXPECT_EQ(m.in_flight(), 0u);
}

TEST(Mshr, StrayFillReturnsEmpty) {
  Mshr m(4);
  EXPECT_TRUE(m.on_fill(42).empty());
}

TEST(Mshr, CapacityFreedAfterFill) {
  Mshr m(1);
  m.on_miss(1, 1);
  EXPECT_EQ(m.on_miss(2, 2), MshrOutcome::kFull);
  m.on_fill(1);
  EXPECT_EQ(m.on_miss(2, 2), MshrOutcome::kAllocated);
}

TEST(Mshr, CountsAllocations) {
  Mshr m(8);
  for (Addr line = 0; line < 5; ++line) m.on_miss(line, line);
  EXPECT_EQ(m.allocations(), 5u);
  EXPECT_EQ(m.capacity(), 8u);
}

TEST(Mshr, MergesKeepWaiterOrderPerLine) {
  Mshr m(4);
  m.on_miss(1, 10);
  m.on_miss(2, 20);
  m.on_miss(1, 11);
  m.on_miss(3, 30);
  m.on_miss(2, 21);
  m.on_miss(1, 12);
  EXPECT_EQ(m.on_fill(1), (std::vector<std::uint64_t>{10, 11, 12}));
  EXPECT_EQ(m.on_fill(2), (std::vector<std::uint64_t>{20, 21}));
  EXPECT_EQ(m.on_fill(3), (std::vector<std::uint64_t>{30}));
}

TEST(Mshr, SwapRemoveKeepsOtherEntriesWaiters) {
  Mshr m(4);
  for (Addr line = 1; line <= 4; ++line) {
    m.on_miss(line, line * 100);
    m.on_miss(line, line * 100 + 1);
  }
  // Filling the first slot moves the last entry into it.
  EXPECT_EQ(m.on_fill(1), (std::vector<std::uint64_t>{100, 101}));
  EXPECT_EQ(m.in_flight(), 3u);
  EXPECT_FALSE(m.holds(1));
  for (Addr line = 2; line <= 4; ++line) EXPECT_TRUE(m.holds(line));
  // A merge into the moved entry lands behind its own waiters.
  EXPECT_EQ(m.on_miss(4, 402), MshrOutcome::kMerged);
  EXPECT_EQ(m.on_fill(3), (std::vector<std::uint64_t>{300, 301}));
  EXPECT_EQ(m.on_fill(4), (std::vector<std::uint64_t>{400, 401, 402}));
  EXPECT_EQ(m.on_fill(2), (std::vector<std::uint64_t>{200, 201}));
  EXPECT_EQ(m.in_flight(), 0u);
}

TEST(Mshr, FullTableRejectsUntilAFill) {
  Mshr m(3);
  for (Addr line = 0; line < 3; ++line) {
    EXPECT_EQ(m.on_miss(line, line), MshrOutcome::kAllocated);
  }
  EXPECT_EQ(m.on_miss(9, 9), MshrOutcome::kFull);
  EXPECT_FALSE(m.holds(9));
  EXPECT_EQ(m.in_flight(), 3u);
  m.on_fill(1);
  EXPECT_EQ(m.on_miss(9, 9), MshrOutcome::kAllocated);
  EXPECT_EQ(m.on_miss(10, 10), MshrOutcome::kFull);
  EXPECT_EQ(m.rejections(), 2u);
}

TEST(Mshr, StrayFillLeavesEntriesAlone) {
  Mshr m(4);
  m.on_miss(5, 50);
  EXPECT_TRUE(m.on_fill(6).empty());
  EXPECT_TRUE(m.on_fill(6).empty());
  EXPECT_EQ(m.in_flight(), 1u);
  EXPECT_EQ(m.on_fill(5), (std::vector<std::uint64_t>{50}));
  EXPECT_TRUE(m.on_fill(5).empty());  // Second fill of the same line.
}

TEST(Mshr, FilledWaitersStayValidWhileTheCallerCompletesThem) {
  // The System walks the returned list while completing each waiter, and a
  // completion may issue misses into this MSHR and fill other MSHRs.
  Mshr llc(4);
  Mshr l1(4);
  for (std::uint64_t w = 0; w < 3; ++w) llc.on_miss(7, 70 + w);
  llc.on_miss(8, 80);
  l1.on_miss(7, 700);
  const std::vector<std::uint64_t>& waiters = llc.on_fill(7);
  std::vector<std::uint64_t> seen;
  for (std::uint64_t w : waiters) {
    seen.push_back(w);
    llc.on_miss(100 + w, w);  // New misses reuse freed slots.
    llc.on_miss(8, w);        // Merges into a moved entry.
    l1.on_fill(7);
    l1.on_miss(7, w);
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{70, 71, 72}));
  EXPECT_EQ(llc.on_fill(8), (std::vector<std::uint64_t>{80, 70, 71, 72}));
}

TEST(Mshr, MatchesAReferenceMapUnderRandomTraffic) {
  Rng rng(11);
  Mshr m(8);
  std::map<Addr, std::vector<std::uint64_t>> ref;
  for (std::uint64_t step = 0; step < 20000; ++step) {
    const Addr line = rng.next_below(16);
    if (rng.chance(0.6)) {
      const MshrOutcome r = m.on_miss(line, step);
      if (ref.count(line) != 0) {
        EXPECT_EQ(r, MshrOutcome::kMerged);
        ref[line].push_back(step);
      } else if (ref.size() >= 8) {
        EXPECT_EQ(r, MshrOutcome::kFull);
      } else {
        EXPECT_EQ(r, MshrOutcome::kAllocated);
        ref[line] = {step};
      }
    } else {
      const auto it = ref.find(line);
      const std::vector<std::uint64_t> expected =
          it == ref.end() ? std::vector<std::uint64_t>{} : it->second;
      if (it != ref.end()) ref.erase(it);
      EXPECT_EQ(m.on_fill(line), expected) << "step " << step;
    }
    ASSERT_EQ(m.in_flight(), ref.size());
    ASSERT_EQ(m.holds(line), ref.count(line) != 0);
  }
}

class MshrStress : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MshrStress, InFlightNeverExceedsCapacity) {
  const std::size_t cap = GetParam();
  Mshr m(cap);
  std::uint64_t pending_lines = 0;
  for (Addr line = 0; line < 1000; ++line) {
    const auto r = m.on_miss(line % (cap * 2), line);
    if (r == MshrOutcome::kAllocated) ++pending_lines;
    EXPECT_LE(m.in_flight(), cap);
    if (line % 3 == 0 && m.holds(line % (cap * 2))) {
      m.on_fill(line % (cap * 2));
    }
  }
  (void)pending_lines;
}

INSTANTIATE_TEST_SUITE_P(Caps, MshrStress, ::testing::Values(1u, 2u, 8u, 16u, 64u));

}  // namespace
}  // namespace coaxial::cache
