// Determinism guarantees over the stats JSON documents.
//
// The simulator is seeded and single-threaded per run, and the metrics
// snapshot is a sorted map emitted by a canonical writer — so the same
// request must produce byte-identical JSON every time, and a batch's
// document must not depend on how many host threads executed it. These are
// the properties the golden-regression layer (test_golden_stats.cpp) builds
// on; if this test breaks, golden comparisons are meaningless.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/runner.hpp"

namespace coaxial::sim {
namespace {

constexpr std::uint64_t kWarmup = 500;
constexpr std::uint64_t kMeasure = 2000;

RunRequest pooled_request(const pool::PoolConfig& cfg, std::uint32_t shards) {
  RunRequest req;
  req.pool = cfg;
  // Shrunk footprints (as in test_pool.cpp) so the short run still collides
  // on hot shared pages and generates real directory traffic.
  req.pool.private_pages = 1 << 12;
  req.pool.shared_pages = 256;
  req.pool.shared_hot_pages = 4;
  req.pool.shared_hot_prob = 0.9;
  req.warmup_instr = 300;
  req.measure_instr = 1500;
  req.seed = 7;
  req.shards = shards;
  return req;
}

TEST(Determinism, RunOneIsByteIdenticalAcrossRepeats) {
  const RunRequest req = homogeneous(sys::baseline_ddr(), "canneal", kWarmup,
                                     kMeasure, /*seed=*/7);
  const std::string a = stats_json(run_one(req));
  const std::string b = stats_json(run_one(req));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Determinism, CoaxialTopologyIsAlsoDeterministic) {
  const RunRequest req = homogeneous(sys::coaxial_4x(), "lbm", kWarmup,
                                     kMeasure, /*seed=*/11);
  EXPECT_EQ(stats_json(run_one(req)), stats_json(run_one(req)));
}

TEST(Determinism, SeedChangesTheDocument) {
  // Guard against a trivially-passing determinism test: the document must
  // actually depend on the simulation, not just echo the request.
  RunRequest req = homogeneous(sys::baseline_ddr(), "canneal", kWarmup,
                               kMeasure, /*seed=*/7);
  const std::string a = stats_json(run_one(req));
  req.seed = 8;
  EXPECT_NE(a, stats_json(run_one(req)));
}

TEST(Determinism, RunManyIsIndependentOfThreadCount) {
  const std::vector<RunRequest> reqs = {
      homogeneous(sys::baseline_ddr(), "canneal", kWarmup, kMeasure, 7),
      homogeneous(sys::coaxial_4x(), "lbm", kWarmup, kMeasure, 7),
      homogeneous(sys::coaxial_4x(), "stream-copy", kWarmup, kMeasure, 9),
      homogeneous(sys::baseline_ddr(), "bfs", kWarmup, kMeasure, 5),
  };
  const std::string serial = stats_json(run_many(reqs, 1));
  const std::string parallel = stats_json(run_many(reqs, 4));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Determinism, ShardWorkerCountNeverChangesThePooledDocument) {
  // DESIGN.md §14: the sharded quantum engine is a pure scheduling change.
  // Pooled runs must emit byte-identical documents at every worker count —
  // including a count above the shard count (clamped) — both in the healthy
  // ping-pong scenario and under a mid-run device failure.
  const std::string healthy =
      stats_json(run_one(pooled_request(sys::coaxial_pooled(4), 1)));
  const std::string faulty = stats_json(
      run_one(pooled_request(sys::coaxial_pooled_faulty(2, /*at_cycle=*/4000), 1)));
  EXPECT_FALSE(healthy.empty());
  for (const std::uint32_t n : {2u, 4u, 8u}) {
    EXPECT_EQ(healthy,
              stats_json(run_one(pooled_request(sys::coaxial_pooled(4), n))));
    EXPECT_EQ(faulty,
              stats_json(run_one(pooled_request(
                  sys::coaxial_pooled_faulty(2, /*at_cycle=*/4000), n))));
  }
}

TEST(Determinism, ShardKnobIsInertForSingleHostRuns) {
  // Single-host System runs stay sequential (the payload event queue's
  // same-cycle tie-break is global state; see sim/scheduler.hpp). The shard
  // knob must therefore not perturb the golden baseline, RAS, or tiered
  // documents in any way.
  std::vector<RunRequest> reqs = golden_requests();
  {
    RunRequest ras = homogeneous(sys::coaxial_4x(), "lbm", kWarmup, kMeasure, 7);
    ras.config.fault_plan = sys::ras_stress();
    reqs.push_back(ras);
    reqs.push_back(homogeneous(sys::coaxial_tiered(), "canneal", kWarmup,
                               kMeasure, /*seed=*/7));
  }
  for (const RunRequest& req : reqs) {
    if (req.pool.enabled()) continue;  // Pooled rows: the test above.
    RunRequest sharded = req;
    sharded.shards = 4;
    EXPECT_EQ(stats_json(run_one(req)), stats_json(run_one(sharded)));
  }
}

TEST(Determinism, DocumentCarriesSchemaAndRunMetadata) {
  const RunRequest req = homogeneous(sys::baseline_ddr(), "canneal", kWarmup,
                                     kMeasure, /*seed=*/7);
  const std::string doc = stats_json(run_one(req));
  EXPECT_NE(doc.find("\"schema\": \"coaxial-stats-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"config\": \"DDR-baseline\""), std::string::npos);
  EXPECT_NE(doc.find("\"workload\": \"canneal\""), std::string::npos);
  EXPECT_NE(doc.find("\"seed\": 7"), std::string::npos);
}

}  // namespace
}  // namespace coaxial::sim
