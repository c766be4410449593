// Sharded quantum engine (DESIGN.md §14): conservative-lookahead derivation
// and validation, worker-count independence of the stats document, shard
// placement, the worker team's barrier (near-empty rounds, the park path,
// exceptions, oversubscription), and the outer-pool x inner-shard cap — on
// direct and switched (star and tree) pools alike.
//
// The load-bearing property is byte-identity: the parallel pump must be a
// pure scheduling change. Every test here compares full canonical JSON
// documents, not individual counters, so any divergence — a reordered
// mailbox drain, a worker-count-dependent barrier decision — fails loudly.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"
#include "common/thread_pool.hpp"
#include "link/lane_config.hpp"
#include "obs/stats_json.hpp"
#include "sim/pooled_system.hpp"
#include "sim/runner.hpp"
#include "sim/shard.hpp"

namespace coaxial {
namespace {

pool::PoolConfig small_pool(std::uint32_t hosts) {
  pool::PoolConfig c = sys::coaxial_pooled(hosts, /*share_fraction=*/0.5);
  // Shrunk footprints (as in test_pool.cpp) so short runs still collide on
  // the hot shared pages and the directory actually ping-pongs.
  c.private_pages = 1 << 12;
  c.shared_pages = 256;
  c.shared_hot_pages = 4;
  c.shared_hot_prob = 0.9;
  return c;
}

/// small_pool() behind a switch on every host head. A tree splits its
/// devices over two leaves, so it needs an even device count: 2 shared + 2
/// private.
pool::PoolConfig switched_pool(std::uint32_t hosts, fabric::TopologyKind kind) {
  pool::PoolConfig c = small_pool(hosts);
  c.fabric_kind = kind;
  if (kind == fabric::TopologyKind::kTree) c.private_devices = 2;
  return c;
}

pool::PoolConfig faulty_pool(std::uint32_t hosts) {
  pool::PoolConfig c = sys::coaxial_pooled_faulty(hosts, /*at_cycle=*/4'000);
  c.private_pages = 1 << 12;
  c.shared_pages = 256;
  c.shared_hot_pages = 4;
  c.shared_hot_prob = 0.9;
  return c;
}

sim::RunRequest pooled_request(const pool::PoolConfig& cfg,
                               std::uint32_t shards) {
  sim::RunRequest req;
  req.pool = cfg;
  req.warmup_instr = 300;
  req.measure_instr = 1'500;
  req.seed = 7;
  req.shards = shards;
  return req;
}

// ------------------------------------------------------ lookahead derivation

TEST(ShardLookahead, DirectFabricDerivesPositiveQuantum) {
  sim::PooledSystem s(small_pool(2), /*seed=*/7);
  // The quantum is the fabric's minimum cross-shard delivery latency; a
  // direct point-to-point CXL hop is always multiple cycles.
  EXPECT_GT(s.lookahead(), 1u);
}

TEST(ShardLookahead, SwitchedLookaheadIsTheDeviceSegmentFloor) {
  // A switched head is cut at the shared devices' ports, so the quantum is
  // one device segment — a link port, a switch port and one 16-byte
  // serialisation — however many switches the head has.
  for (const fabric::TopologyKind kind :
       {fabric::TopologyKind::kStar, fabric::TopologyKind::kTree}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const pool::PoolConfig cfg = switched_pool(2, kind);
    const link::LaneConfig lanes = link::LaneConfig::x8(cfg.cxl_port_ns);
    const Cycle floor =
        lanes.port_latency_cycles() + ns_to_cycles(cfg.switch_port_ns) +
        std::min(serialization_cycles(lanes.tx_goodput_gbps, link::kReadRequestBytes),
                 serialization_cycles(lanes.rx_goodput_gbps, link::kReadRequestBytes));
    EXPECT_EQ(sim::PooledSystem(cfg, /*seed=*/7).lookahead(), floor);
  }
}

TEST(ShardLookahead, DeclaredLatencyIsCrossCheckedOnSwitchedPools) {
  for (const fabric::TopologyKind kind :
       {fabric::TopologyKind::kStar, fabric::TopologyKind::kTree}) {
    SCOPED_TRACE(static_cast<int>(kind));
    pool::PoolConfig cfg = switched_pool(2, kind);
    const Cycle derived = sim::PooledSystem(cfg, /*seed=*/7).lookahead();
    cfg.shard_min_latency_cycles = derived;
    EXPECT_EQ(sim::PooledSystem(cfg, /*seed=*/7).lookahead(), derived);
    cfg.shard_min_latency_cycles = derived - 1;
    EXPECT_THROW(sim::PooledSystem(cfg, /*seed=*/7), std::invalid_argument);
    cfg.shard_min_latency_cycles = derived + 1;
    EXPECT_THROW(sim::PooledSystem(cfg, /*seed=*/7), std::invalid_argument);
  }
}

TEST(ShardLookahead, DeclaredLatencyMatchingDerivedIsAccepted) {
  pool::PoolConfig cfg = small_pool(2);
  const Cycle derived = sim::PooledSystem(cfg, /*seed=*/7).lookahead();
  cfg.shard_min_latency_cycles = derived;
  sim::PooledSystem s(cfg, /*seed=*/7);
  EXPECT_EQ(s.lookahead(), derived);
}

TEST(ShardLookahead, DeclaredLatencyBelowDerivedIsRejected) {
  // A declared minimum below the true fabric latency would be accepted by a
  // naive engine and silently waste lookahead; the config layer must refuse
  // it instead of letting the mismatch hide.
  pool::PoolConfig cfg = small_pool(2);
  const Cycle derived = sim::PooledSystem(cfg, /*seed=*/7).lookahead();
  ASSERT_GT(derived, 1u);  // Otherwise `derived - 1` would be the 0 sentinel.
  cfg.shard_min_latency_cycles = derived - 1;
  EXPECT_THROW(sim::PooledSystem(cfg, /*seed=*/7), std::invalid_argument);
}

TEST(ShardLookahead, DeclaredLatencyAboveDerivedIsRejected) {
  // The opposite direction is worse: a too-large quantum would deliver
  // cross-shard messages later than the fabric actually can, changing
  // results. Also a hard configuration error.
  pool::PoolConfig cfg = small_pool(2);
  const Cycle derived = sim::PooledSystem(cfg, /*seed=*/7).lookahead();
  cfg.shard_min_latency_cycles = derived + 1;
  EXPECT_THROW(sim::PooledSystem(cfg, /*seed=*/7), std::invalid_argument);
}

// -------------------------------------------------- worker-count invariance

TEST(ShardDeterminism, WorkerCountNeverChangesThePooledDocument) {
  // 3, 5 and 6 workers divide neither 5 nor 9 shards, so striping and the
  // cost-measured placement give different owners; the budget is long
  // enough for the team to re-plan twice. Neither may change a byte. The
  // parked paths ride along: one hot page every host hammers (heads park
  // behind its lock), and a two-entry directory (inserts find every entry
  // locked and no victim). So do star and tree heads, whose switch planes
  // take landed responses and return switch-port credits at the barrier.
  pool::PoolConfig hot_page = small_pool(4);
  hot_page.share_fraction = 0.9;
  hot_page.shared_hot_pages = 1;
  hot_page.shared_hot_prob = 1.0;
  pool::PoolConfig tiny_directory = small_pool(4);
  tiny_directory.directory_entries = 2;
  for (const pool::PoolConfig& cfg :
       {small_pool(4), small_pool(8), hot_page, tiny_directory,
        switched_pool(4, fabric::TopologyKind::kStar),
        switched_pool(4, fabric::TopologyKind::kTree)}) {
    sim::RunRequest req = pooled_request(cfg, /*shards=*/1);
    req.warmup_instr = 1'000;
    req.measure_instr = 10'000;
    const sim::RunResult seq = sim::run_one(req);
    EXPECT_GT(seq.pooled.pool.invals_sent, 0u);
    EXPECT_EQ(seq.pooled.pool.invals_sent, seq.pooled.pool.invals_acked);
    const std::string base = stats_json(seq);
    ASSERT_FALSE(base.empty());
    for (const std::uint32_t n : {2u, 3u, 4u, 5u, 6u, 8u}) {
      req.shards = n;
      EXPECT_EQ(base, stats_json(sim::run_one(req)))
          << "document diverged at " << n << " shard workers over "
          << cfg.n_hosts << " hosts (share " << cfg.share_fraction
          << ", directory " << cfg.directory_entries << ", fabric "
          << static_cast<int>(cfg.fabric_kind) << ")";
    }
  }
}

TEST(ShardDeterminism, WorkerCountInvariantUnderDeviceFailure) {
  // The RAS path exercises the straggler protocol: demands in flight toward
  // a device that dies mid-quantum must bounce at the barrier with the same
  // timing every worker count observes — on a star head too, where they
  // may still sit in the host's switch plane when the device dies.
  pool::PoolConfig star = faulty_pool(4);
  star.fabric_kind = fabric::TopologyKind::kStar;
  for (const pool::PoolConfig& cfg : {faulty_pool(2), faulty_pool(4), star}) {
    const std::uint32_t hosts = cfg.n_hosts;
    sim::PooledSystem seq(cfg, /*seed=*/7);
    seq.run(/*warmup_instr=*/300, /*measure_instr=*/3'000);
    const std::string base =
        obs::json::snapshot_to_json(seq.metrics().snapshot());
    const ras::AvailCounters av = seq.memory().avail_counters();
    // The scenario must actually fire, or this test proves nothing.
    ASSERT_GT(av.devices_offlined, 0u);
    EXPECT_GT(av.bounced_reads + av.refused_txns, 0u);
    for (const std::uint32_t n : {2u, 3u, 4u, 5u, 6u, 8u}) {
      sim::PooledSystem par(cfg, /*seed=*/7);
      par.set_workers(n);
      par.run(300, 3'000);
      EXPECT_EQ(base, obs::json::snapshot_to_json(par.metrics().snapshot()))
          << "document diverged at " << n << " shard workers over " << hosts
          << " hosts (fabric " << static_cast<int>(cfg.fabric_kind) << ")";
    }
  }
}

TEST(ShardDeterminism, EffectiveWorkersAreClampedToShardCount) {
  // 2 hosts -> 3 shards; asking for 8 workers must report 3, and the team
  // must still produce the sequential document (checked above).
  sim::PooledSystem s(small_pool(2), /*seed=*/7);
  s.set_workers(8);
  s.run(300, 1'500);
  EXPECT_EQ(s.effective_workers(), 3u);
}

// ------------------------------------------------------------ placement

TEST(ShardPlacement, EveryShardHasExactlyOneOwner) {
  const std::vector<double> cost = {54, 22, 22, 22, 22, 3, 0, 17, 22};
  for (std::size_t workers = 1; workers <= 10; ++workers) {
    const std::vector<std::size_t> owner =
        sim::shard::plan_placement(cost, /*coordinator_cost=*/5, workers);
    ASSERT_EQ(owner.size(), cost.size());
    for (const std::size_t w : owner) EXPECT_LT(w, workers);
  }
}

TEST(ShardPlacement, OneWorkerOwnsEveryShard) {
  const std::vector<std::size_t> owner =
      sim::shard::plan_placement({9, 1, 4, 4}, /*coordinator_cost=*/100, 1);
  EXPECT_EQ(owner, (std::vector<std::size_t>{0, 0, 0, 0}));
}

TEST(ShardPlacement, LongestShardGetsALeastLoadedWorker) {
  // The measured pooled profile: the pool shard costs about 2.5 hosts.
  // Striping would stack it with host 3 on the coordinator; LPT gives it a
  // worker of its own and charges the coordinator's serial drain.
  const std::vector<std::size_t> owner =
      sim::shard::plan_placement({54, 22, 22, 22, 22}, /*coordinator_cost=*/5, 4);
  EXPECT_EQ(owner, (std::vector<std::size_t>{1, 2, 3, 0, 2}));
}

TEST(ShardPlacement, TiesResolveDeterministically) {
  // Equal costs: lower shard index first, onto the lower worker index —
  // which is striping when the coordinator carries no serial work.
  EXPECT_EQ(sim::shard::plan_placement({1, 1, 1, 1, 1}, 0, 4),
            (std::vector<std::size_t>{0, 1, 2, 3, 0}));
  // Serial work moves the coordinator behind every idle worker.
  EXPECT_EQ(sim::shard::plan_placement({1, 1, 1, 1, 1}, 0.5, 4),
            (std::vector<std::size_t>{1, 2, 3, 0, 1}));
  EXPECT_EQ(sim::shard::plan_placement({2, 1, 2, 1}, 0, 2),
            sim::shard::plan_placement({2, 1, 2, 1}, 0, 2));
}

TEST(ShardPlacement, TeamMovesAnExpensiveShardOntoAWorkerOfItsOwn) {
  // Shard 0 costs 100 µs a round, the rest nothing; once the team has
  // measured that, shard 0's owner runs no other shard. (The margin keeps
  // a descheduled tiny shard from outweighing it in the sampled costs.)
  sim::shard::WorkerTeam team(/*workers=*/3, /*shards=*/6);
  const auto busy = [](std::size_t s) {
    if (s != 0) return;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(100);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  for (int r = 0; r < 600; ++r) team.round(busy);
  const std::vector<std::size_t>& owner = team.owners();
  for (std::size_t s = 1; s < owner.size(); ++s) {
    EXPECT_NE(owner[s], owner[0]) << "shard " << s << " shares the busy worker";
  }
  team.shutdown();
}

// ------------------------------------------------------------- barrier

TEST(ShardBarrier, ThousandsOfNearEmptyRoundsRunEveryShardOnce) {
  for (const std::size_t workers : {2u, 4u}) {
    sim::shard::WorkerTeam team(workers, /*shards=*/8);
    std::vector<std::uint64_t> runs(8, 0);
    const auto bump = [&](std::size_t s) { ++runs[s]; };
    constexpr std::uint64_t kRounds = 5'000;
    for (std::uint64_t r = 0; r < kRounds; ++r) team.round(bump);
    team.shutdown();
    for (std::size_t s = 0; s < runs.size(); ++s) {
      EXPECT_EQ(runs[s], kRounds) << "shard " << s << " at " << workers << " workers";
    }
  }
}

TEST(ShardBarrier, WaitersParkAfterTheSpinBudget) {
  // Gaps longer than the spin budget, on both sides of the barrier, drive
  // workers (idle coordinator between rounds) and the coordinator (a slow
  // worker-owned shard) into the park path.
  sim::shard::WorkerTeam team(/*workers=*/2, /*shards=*/2);
  const std::thread::id coordinator = std::this_thread::get_id();
  std::vector<std::uint64_t> runs(2, 0);
  const auto slow_worker = [&](std::size_t s) {
    if (std::this_thread::get_id() != coordinator) {
      std::this_thread::sleep_for(3 * sim::shard::WorkerTeam::kSpinBudget);
    }
    ++runs[s];
  };
  for (int r = 0; r < 20; ++r) {
    team.round(slow_worker);
    std::this_thread::sleep_for(3 * sim::shard::WorkerTeam::kSpinBudget);
  }
  team.shutdown();
  EXPECT_EQ(runs, (std::vector<std::uint64_t>{20, 20}));
}

TEST(ShardBarrier, WorkerExceptionInALateRoundReachesTheCaller) {
  sim::shard::WorkerTeam team(/*workers=*/4, /*shards=*/8);
  const std::thread::id coordinator = std::this_thread::get_id();
  int round = 0;
  const auto fn = [&](std::size_t) {
    if (round == 900 && std::this_thread::get_id() != coordinator) {
      throw std::runtime_error("shard failed");
    }
  };
  bool thrown = false;
  try {
    for (; round < 1'000; ++round) team.round(fn);
  } catch (const std::runtime_error& e) {
    thrown = true;
    EXPECT_STREQ(e.what(), "shard failed");
  }
  EXPECT_TRUE(thrown);
  EXPECT_EQ(round, 900);
  // The team must still be whole: another round runs, then it joins.
  round = 0;
  EXPECT_NO_THROW(team.round(fn));
  team.shutdown();
}

TEST(ShardBarrier, OversubscribedTeamParksAndFinishes) {
  // More workers than hardware threads: spinning would steal the CPU a
  // peer needs, so every wait parks at once.
  const std::size_t workers =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1) * 2 + 1;
  const auto start = std::chrono::steady_clock::now();
  sim::shard::WorkerTeam team(workers, workers);
  EXPECT_FALSE(team.spinning());
  std::vector<std::uint64_t> runs(workers, 0);
  for (int r = 0; r < 2'000; ++r) team.round([&](std::size_t s) { ++runs[s]; });
  team.shutdown();
  for (const std::uint64_t n : runs) EXPECT_EQ(n, 2'000u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(30));
}

// ------------------------------------------------- outer x inner worker cap

TEST(ShardCap, InnerShardCapNeverOversubscribes) {
  // outer pool threads x inner shard workers <= hardware threads.
  EXPECT_EQ(inner_shard_cap(/*outer=*/1, /*hardware=*/8), 8u);
  EXPECT_EQ(inner_shard_cap(2, 8), 4u);
  EXPECT_EQ(inner_shard_cap(3, 8), 2u);
  EXPECT_EQ(inner_shard_cap(8, 8), 1u);
  EXPECT_EQ(inner_shard_cap(16, 8), 1u);  // Oversubscribed outer: no inner.
  EXPECT_EQ(inner_shard_cap(0, 8), 8u);   // 0 outer means one pool thread.
  EXPECT_EQ(inner_shard_cap(4, 1), 1u);   // Single-CPU box: always inline.
}

TEST(ShardCap, RunManyCapsWorkersWithoutChangingStats) {
  // A batch on a 2-thread pool halves each run's shard budget; the stats
  // must not notice (caps are pure scheduling).
  const std::vector<sim::RunRequest> reqs = {
      pooled_request(small_pool(2), /*shards=*/8),
      pooled_request(small_pool(4), /*shards=*/8),
  };
  const std::vector<sim::RunResult> batch = sim::run_many(reqs, /*threads=*/2);
  ASSERT_EQ(batch.size(), 2u);
  const std::uint32_t hw = std::thread::hardware_concurrency();
  for (const sim::RunResult& r : batch) {
    EXPECT_LE(r.shards * 2u, std::max(hw, 2u));
  }
  EXPECT_EQ(stats_json(batch[0]),
            stats_json(sim::run_one(pooled_request(small_pool(2), 1))));
  EXPECT_EQ(stats_json(batch[1]),
            stats_json(sim::run_one(pooled_request(small_pool(4), 1))));
}

TEST(ShardCap, ExplicitRequestCapBoundsEnvAndRequest) {
  sim::RunRequest req = pooled_request(small_pool(2), /*shards=*/8);
  req.shard_cap = 2;
  const sim::RunResult res = sim::run_one(req);
  EXPECT_EQ(res.shards, 2u);
}

}  // namespace
}  // namespace coaxial
