// Golden-regression layer over the stats JSON documents.
//
// Three small (config, workload) pairs run with fixed seeds and tiny
// instruction budgets; the emitted document is compared against the
// checked-in baseline (tests/golden/baseline.json) with the same diff
// engine the statdiff CLI uses: counters and other integral leaves exact,
// floating leaves (IPC, latencies, rates) within 1e-9 relative tolerance.
//
// Regenerating the baseline after an intentional behaviour change:
//
//   COAXIAL_REGEN_GOLDEN=1 ./build/tests/test_golden_stats
//
// then commit the updated tests/golden/baseline.json (see EXPERIMENTS.md).
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/statdiff.hpp"
#include "obs/stats_json.hpp"
#include "sim/runner.hpp"

#ifndef COAXIAL_GOLDEN_DIR
#error "test_golden_stats requires COAXIAL_GOLDEN_DIR (set by tests/CMakeLists.txt)"
#endif

namespace coaxial::sim {
namespace {

const char* kGoldenPath = COAXIAL_GOLDEN_DIR "/baseline.json";

// The golden scenario set lives in sim::golden_requests() so this test and
// the tools/golden_run CLI always describe the same runs.
std::string run_golden_document(bool tick_every_cycle = false) {
  std::vector<RunRequest> requests = golden_requests();
  for (RunRequest& r : requests) r.tick_every_cycle = tick_every_cycle;
  return stats_json(run_many(requests, 1));
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

obs::DiffOptions golden_options() {
  obs::DiffOptions opts;
  opts.default_rtol = 1e-9;  // Floats: bit-level drift only. Integrals: exact.
  return opts;
}

TEST(GoldenStats, MatchesCheckedInBaseline) {
  const std::string current = run_golden_document();

  if (std::getenv("COAXIAL_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << current;
    out.close();
    GTEST_SKIP() << "regenerated golden baseline at " << kGoldenPath;
  }

  std::string golden;
  ASSERT_TRUE(read_file(kGoldenPath, golden))
      << "missing " << kGoldenPath
      << " — regenerate with COAXIAL_REGEN_GOLDEN=1 " << "./test_golden_stats";

  const std::vector<obs::Diff> diffs = obs::diff_stats(
      obs::json::parse_flat(golden), obs::json::parse_flat(current),
      golden_options());
  for (const obs::Diff& d : diffs) {
    ADD_FAILURE() << obs::to_string(d);
  }
  EXPECT_TRUE(diffs.empty())
      << diffs.size() << " metric(s) drifted from the golden baseline; if the "
      << "change is intentional, regenerate with COAXIAL_REGEN_GOLDEN=1";
}

TEST(GoldenStats, LockstepDocumentIsByteIdentical) {
  // Event-driven scheduling only skips cycles in which nothing can happen,
  // so the lockstep reference loop must reproduce every row byte for byte:
  // single-host System runs and the pooled engine on direct and switched
  // pools.
  EXPECT_EQ(run_golden_document(/*tick_every_cycle=*/true), run_golden_document());
}

TEST(GoldenStats, DiffEngineCatchesInjectedPerturbation) {
  // End-to-end guard that the comparison is not vacuous: perturb one counter
  // in the live document and the golden diff machinery must flag it.
  const std::string base = run_golden_document();
  const obs::json::Flat flat_base = obs::json::parse_flat(base);

  // Find an integral metric leaf and bump it by one in the JSON text.
  std::string target;
  for (const auto& [path, v] : flat_base) {
    if (v.kind == obs::json::Value::Kind::kNumber && v.integral &&
        path.find("/metrics/") != std::string::npos && v.num > 0) {
      target = path;
      break;
    }
  }
  ASSERT_FALSE(target.empty()) << "no integral metric leaf found";

  obs::json::Flat perturbed = flat_base;
  perturbed[target].num += 1.0;

  const std::vector<obs::Diff> diffs =
      obs::diff_stats(flat_base, perturbed, golden_options());
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].path, target);
  EXPECT_EQ(diffs[0].reason, "not-exact");
}

TEST(GoldenStats, BaselineParsesAndHasExpectedShape) {
  std::string golden;
  if (!read_file(kGoldenPath, golden)) {
    GTEST_SKIP() << "baseline not generated yet";
  }
  const obs::json::Flat flat = obs::json::parse_flat(golden);
  EXPECT_EQ(flat.at("schema").str, "coaxial-stats-v1");
  EXPECT_EQ(flat.at("runs/000/config").str, "DDR-baseline");
  EXPECT_EQ(flat.at("runs/000/workload").str, "canneal");
  EXPECT_EQ(flat.at("runs/001/workload").str, "lbm");
  EXPECT_EQ(flat.at("runs/002/workload").str, "stream-copy");
  // Every run carries a populated metrics tree.
  for (const char* run : {"runs/000", "runs/001", "runs/002"}) {
    const std::string key = std::string(run) + "/metrics/run/instructions";
    ASSERT_TRUE(flat.count(key)) << key;
    EXPECT_GT(flat.at(key).num, 0.0);
  }
  // CXL-attached runs expose link metrics; the direct-DDR baseline does not.
  EXPECT_TRUE(flat.count("runs/001/metrics/mem/cxl/link00/tx/messages"));
  EXPECT_FALSE(flat.count("runs/000/metrics/mem/cxl/link00/tx/messages"));
  // The pooled rows (direct, switched, surprise removal) pin real coherence
  // traffic, and the faulty pool the device-failure subtree.
  for (const char* run : {"runs/003", "runs/004", "runs/005"}) {
    const std::string key = std::string(run) + "/metrics/pool/coh/invals_sent";
    ASSERT_TRUE(flat.count(key)) << key;
    EXPECT_GT(flat.at(key).num, 0.0);
    EXPECT_EQ(flat.at(key).num,
              flat.at(std::string(run) + "/metrics/pool/coh/invals_acked").num);
  }
  EXPECT_TRUE(flat.count("runs/004/metrics/pool/mem/host/00/fabric/sw00/down/in00/enqueued"));
  EXPECT_GT(flat.at("runs/005/metrics/ras/avail/devices_offlined").num, 0.0);
}

}  // namespace
}  // namespace coaxial::sim
