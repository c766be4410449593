// The payload-event calendar wheel (sim/event_queue.hpp): events pop in
// (cycle, insertion sequence) order across kinds, across the ring/overflow
// boundary and across ring wraps, exactly as a (cycle, sequence) heap pops
// them.
#include "sim/event_queue.hpp"

#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace coaxial::sim {
namespace {

Event make(Cycle cycle, EventKind kind, std::uint32_t a) {
  return Event{cycle, kind, a, /*line=*/a * 7u, /*aux=*/a * 13u};
}

/// Every event due at or before `now`, in pop order, as their `a` ids.
std::vector<std::uint32_t> drain(EventQueue& q, Cycle now) {
  std::vector<std::uint32_t> ids;
  Event ev;
  while (q.pop_due(now, ev)) ids.push_back(ev.a);
  return ids;
}

TEST(EventQueue, SameCyclePopsInInsertionOrderAcrossKinds) {
  EventQueue q(/*horizon=*/63);
  // Kinds pushed in an order unrelated to their enum values.
  const EventKind kinds[] = {EventKind::kL1Fill,   EventKind::kMemIssue,
                             EventKind::kOpFinish, EventKind::kL2Lookup,
                             EventKind::kMemArrive, EventKind::kLlcResult};
  std::uint32_t id = 0;
  q.push(make(11, EventKind::kL2Lookup, 100));
  for (EventKind k : kinds) q.push(make(10, k, id++));
  q.push(make(9, EventKind::kL1Fill, 200));
  for (EventKind k : kinds) q.push(make(10, k, id++));

  Event ev;
  ASSERT_TRUE(q.pop_due(20, ev));
  EXPECT_EQ(ev.a, 200u);
  for (std::uint32_t i = 0; i < id; ++i) {
    ASSERT_TRUE(q.pop_due(20, ev));
    EXPECT_EQ(ev.cycle, 10u);
    EXPECT_EQ(ev.a, i);
    EXPECT_EQ(ev.kind, kinds[i % 6]);
    EXPECT_EQ(ev.line, i * 7u);
    EXPECT_EQ(ev.aux, i * 13u);
  }
  ASSERT_TRUE(q.pop_due(20, ev));
  EXPECT_EQ(ev.a, 100u);
  EXPECT_FALSE(q.pop_due(20, ev));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RingCoversTheHorizon) {
  EXPECT_EQ(EventQueue(0).ring_size(), 1u);
  EXPECT_EQ(EventQueue(7).ring_size(), 8u);
  EXPECT_EQ(EventQueue(8).ring_size(), 16u);
  EXPECT_EQ(EventQueue(47).ring_size(), 64u);
}

TEST(EventQueue, OverflowInterleavesWithRingInCycleSequenceOrder) {
  EventQueue q(/*horizon=*/7);  // Ring of 8 cycles.
  q.push(make(20, EventKind::kMemArrive, 1));  // Far: overflow.
  q.push(make(3, EventKind::kL2Lookup, 2));    // Ring.
  q.push(make(12, EventKind::kOpFinish, 3));   // Far: overflow.
  EXPECT_EQ(q.overflow_size(), 2u);
  EXPECT_EQ(q.next_cycle(), 3u);
  EXPECT_EQ(drain(q, 3), std::vector<std::uint32_t>{2});

  EXPECT_EQ(drain(q, 15), std::vector<std::uint32_t>{3});  // Served from overflow.
  EXPECT_EQ(q.cursor(), 15u);
  // Cycle 20 is now within the ring; these land in buckets that wrapped
  // (20 & 7 == 4, 17 & 7 == 1) and must follow the older overflow event of
  // the same cycle.
  q.push(make(20, EventKind::kL1Fill, 4));
  q.push(make(17, EventKind::kLlcResult, 5));
  q.push(make(20, EventKind::kMemIssue, 6));
  q.push(make(40, EventKind::kL2Lookup, 7));  // Far again.
  EXPECT_EQ(q.overflow_size(), 2u);
  EXPECT_EQ(q.next_cycle(), 17u);
  EXPECT_EQ(drain(q, 19), std::vector<std::uint32_t>{5});
  EXPECT_EQ(drain(q, 20), (std::vector<std::uint32_t>{1, 4, 6}));
  EXPECT_EQ(q.next_cycle(), 40u);
  EXPECT_EQ(drain(q, 100), std::vector<std::uint32_t>{7});
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_cycle(), kNoCycle);
}

TEST(EventQueue, DrainConsumesEventsPushedAtItsCycle) {
  EventQueue q(/*horizon=*/15);
  q.push(make(5, EventKind::kLlcResult, 1));
  q.push(make(6, EventKind::kL2Lookup, 9));
  Event ev;
  ASSERT_TRUE(q.pop_due(5, ev));
  EXPECT_EQ(ev.a, 1u);
  // A handler running at cycle 5 schedules at cycle 5: same drain.
  q.push(make(5, EventKind::kOpFinish, 2));
  ASSERT_TRUE(q.pop_due(5, ev));
  EXPECT_EQ(ev.a, 2u);
  EXPECT_EQ(ev.kind, EventKind::kOpFinish);
  EXPECT_FALSE(q.pop_due(5, ev));
  EXPECT_EQ(q.next_cycle(), 6u);
  // After the drain, an event at the drained cycle is still accepted and
  // goes first at the next drain.
  q.push(make(5, EventKind::kMemArrive, 3));
  EXPECT_EQ(drain(q, 6), (std::vector<std::uint32_t>{3, 9}));
}

TEST(EventQueue, PushBeforeDrainCursorThrows) {
  EventQueue q(/*horizon=*/15);
  q.push(make(10, EventKind::kL2Lookup, 1));
  EXPECT_EQ(drain(q, 10), std::vector<std::uint32_t>{1});
  try {
    q.push(make(9, EventKind::kMemArrive, 2));
    FAIL() << "push before the drain cursor did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle 9"), std::string::npos) << what;
    EXPECT_NE(what.find("kMemArrive"), std::string::npos) << what;
  }
  EXPECT_TRUE(q.empty());  // The rejected event was not queued.
}

/// The reference: a binary heap over (cycle, sequence).
struct Ref {
  Cycle cycle;
  std::uint64_t seq;
  std::uint32_t a;
  bool operator>(const Ref& o) const {
    return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
  }
};

class EventQueueVsHeap : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueVsHeap, PopsInReferenceOrder) {
  Rng rng(GetParam());
  EventQueue q(/*horizon=*/31);
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
  std::uint64_t seq = 0;
  std::uint32_t id = 0;
  auto push = [&](Cycle now) {
    // Mostly within the ring, some far out, some at `now` itself.
    const std::uint64_t r = rng.next_below(10);
    const Cycle delay = r == 0 ? 0 : r < 8 ? rng.next_below(32) : 32 + rng.next_below(200);
    const auto kind = static_cast<EventKind>(rng.next_below(6));
    q.push(make(now + delay, kind, id));
    ref.push(Ref{now + delay, seq++, id});
    ++id;
  };
  std::uint64_t overflowed = 0;
  Cycle now = 0;
  for (int step = 0; step < 4000; ++step) {
    // Skip ahead sometimes, as the event-driven loop does.
    now += rng.chance(0.2) ? 1 + rng.next_below(80) : 1;
    Event ev;
    while (q.pop_due(now, ev)) {
      ASSERT_FALSE(ref.empty());
      ASSERT_LE(ref.top().cycle, now);
      EXPECT_EQ(ev.a, ref.top().a) << "step " << step;
      EXPECT_EQ(ev.cycle, ref.top().cycle) << "step " << step;
      ref.pop();
      // Handlers schedule follow-ups from inside the drain.
      if (rng.chance(0.5)) push(now);
    }
    ASSERT_TRUE(ref.empty() || ref.top().cycle > now) << "step " << step;
    const std::uint64_t outside = rng.next_below(4);
    for (std::uint64_t i = 0; i < outside; ++i) push(now);
    overflowed += q.overflow_size();
    EXPECT_EQ(q.size(), ref.size());
    EXPECT_EQ(q.next_cycle(), ref.empty() ? kNoCycle : ref.top().cycle);
  }
  EXPECT_GT(overflowed, 0u);  // The overflow path was exercised.
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueVsHeap, ::testing::Values(1u, 2u, 3u, 42u));

}  // namespace
}  // namespace coaxial::sim
