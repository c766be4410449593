#include "common/slot_pool.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace coaxial {
namespace {

struct Rec {
  int value = 7;
};

TEST(SlotPool, AppendsWhenNoneIsFree) {
  SlotPool<Rec> pool;
  EXPECT_EQ(pool.size(), 0u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pool.acquire(), i);
    EXPECT_EQ(pool.size(), i + 1);
  }
}

TEST(SlotPool, ReusesTheMostRecentlyReleasedIndex) {
  SlotPool<Rec> pool;
  for (int i = 0; i < 5; ++i) pool.acquire();
  pool.release(1);
  pool.release(3);
  pool.release(0);
  EXPECT_EQ(pool.acquire(), 0u);
  EXPECT_EQ(pool.acquire(), 3u);
  EXPECT_EQ(pool.acquire(), 1u);
  EXPECT_EQ(pool.acquire(), 5u);  // Free list empty again: append.
}

TEST(SlotPool, ReleasedSlotKeepsItsContentsUntilReacquired) {
  SlotPool<Rec> pool;
  const std::uint32_t a = pool.acquire();
  EXPECT_EQ(pool[a].value, 7);
  pool[a].value = 42;
  pool.release(a);
  EXPECT_EQ(pool[a].value, 42);  // Scans over size() may read it.
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool[a].value, 7);  // A reused slot starts fresh.
  pool.release(a);
  EXPECT_EQ(pool.acquire(Rec{9}), a);
  EXPECT_EQ(pool[a].value, 9);
}

TEST(SlotPool, LiveCountsAcquiredButUnreleasedSlots) {
  SlotPool<Rec> pool;
  EXPECT_EQ(pool.live(), 0u);
  const std::uint32_t a = pool.acquire();
  const std::uint32_t b = pool.acquire();
  EXPECT_EQ(pool.live(), 2u);
  pool.release(a);
  EXPECT_EQ(pool.live(), 1u);
  pool.acquire();
  pool.acquire();
  EXPECT_EQ(pool.live(), 3u);
  pool.release(b);
  EXPECT_EQ(pool.live(), 2u);
}

TEST(SlotPool, SizeNeverShrinks) {
  // A seeded acquire/release walk against a reference free stack.
  SlotPool<Rec> pool;
  std::vector<std::uint32_t> held;
  std::vector<std::uint32_t> free_ref;
  std::uint32_t size_ref = 0;
  std::uint64_t x = 12345;
  for (int step = 0; step < 2'000; ++step) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint32_t before = pool.size();
    if (held.empty() || (x >> 33) % 3 != 0) {
      std::uint32_t want = size_ref;
      if (free_ref.empty()) {
        ++size_ref;
      } else {
        want = free_ref.back();
        free_ref.pop_back();
      }
      const std::uint32_t got = pool.acquire();
      ASSERT_EQ(got, want);
      held.push_back(got);
    } else {
      const std::size_t k = (x >> 40) % held.size();
      pool.release(held[k]);
      free_ref.push_back(held[k]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
    }
    ASSERT_GE(pool.size(), before);
    ASSERT_EQ(pool.size(), size_ref);
    ASSERT_EQ(pool.live(), held.size());
  }
}

}  // namespace
}  // namespace coaxial
