// Two-stage address translation and tiered placement (DESIGN.md §10):
// config validation, pass-through Router equivalence, tiered translate
// arithmetic, migration determinism across scheduler modes, remap-table
// conservation, and the RunRequest sweep knobs. Lives in the `tier` label
// so the ASan CI pass runs it.
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"
#include "obs/stats_json.hpp"
#include "placement/address_map.hpp"
#include "placement/policy.hpp"
#include "placement/tiered_memory.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace coaxial::placement {
namespace {

TierConfig small_tiered() {
  TierConfig cfg;
  cfg.enabled = true;
  cfg.page_lines = 64;
  cfg.fast_capacity_pages = 8;
  cfg.epoch_cycles = 1000;
  return cfg;
}

// ---------------------------------------------------------- config checks

TEST(TierConfig, DisabledConfigValidatesVacuously) {
  TierConfig cfg;
  cfg.epoch_cycles = 0;  // Would be rejected if enabled.
  EXPECT_NO_THROW(cfg.validate());
}

TEST(TierConfig, RejectsZeroEpochLength) {
  TierConfig cfg = small_tiered();
  cfg.epoch_cycles = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(TierConfig, RejectsZeroCapacityAndChannels) {
  TierConfig cfg = small_tiered();
  cfg.fast_capacity_pages = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_tiered();
  cfg.fast_ddr_channels = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_tiered();
  cfg.max_concurrent_migrations = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(TierConfig, RejectsBadSpillFraction) {
  TierConfig cfg = small_tiered();
  cfg.spill_fraction = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.spill_fraction = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(TierConfig, RejectsOverlappingHdmRanges) {
  TierConfig cfg = small_tiered();
  cfg.hdm_fast_ranges = {{0, 128}, {64, 128}};  // Pages [0,2) and [1,3).
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.hdm_fast_ranges = {{64, 64}, {0, 64}};  // Unsorted but disjoint: fine.
  EXPECT_NO_THROW(cfg.validate());
}

TEST(TierConfig, RejectsMisalignedHdmRanges) {
  TierConfig cfg = small_tiered();
  cfg.hdm_fast_ranges = {{32, 64}};  // base not page-aligned
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.hdm_fast_ranges = {{64, 32}};  // length not page-aligned
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(TierConfig, RejectsCapacitySmallerThanPinnedFootprint) {
  TierConfig cfg = small_tiered();  // 8 frames.
  cfg.hdm_fast_ranges = {{0, 64 * 9}};  // 9 pinned pages.
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.hdm_fast_ranges = {{0, 64 * 8}};  // Exactly the capacity: fine.
  EXPECT_NO_THROW(cfg.validate());
}

// ------------------------------------------------- tiered translate logic

TEST(AddressMapTiered, IdentityToCapacityWithoutRangesOrRemaps) {
  const AddressMap amap = AddressMap::tiered(small_tiered());
  for (const Addr line : {Addr{0}, Addr{63}, Addr{64}, Addr{123456789}}) {
    const Translation t = amap.translate(line);
    EXPECT_EQ(t.tier, 1u);
    EXPECT_EQ(t.local_line, line);
  }
  EXPECT_EQ(amap.native_frames(), 0u);
  EXPECT_EQ(amap.free_frames(), 8u);
}

TEST(AddressMapTiered, HdmRangesDecodeToFastFrames) {
  TierConfig cfg = small_tiered();
  // Pages [2,4) and [10,11) pinned fast -> frames 0,1 then 2.
  cfg.hdm_fast_ranges = {{10 * 64, 64}, {2 * 64, 2 * 64}};
  const AddressMap amap = AddressMap::tiered(cfg);
  EXPECT_EQ(amap.native_frames(), 3u);
  EXPECT_EQ(amap.free_frames(), 5u);
  EXPECT_TRUE(amap.native_fast(2));
  EXPECT_TRUE(amap.native_fast(3));
  EXPECT_TRUE(amap.native_fast(10));
  EXPECT_FALSE(amap.native_fast(4));
  // Ranges sort by base: page 2 -> frame 0, page 3 -> frame 1, page 10 -> 2.
  EXPECT_EQ(amap.translate(2 * 64 + 5).tier, 0u);
  EXPECT_EQ(amap.translate(2 * 64 + 5).local_line, Addr{0 * 64 + 5});
  EXPECT_EQ(amap.translate(3 * 64 + 63).local_line, Addr{1 * 64 + 63});
  EXPECT_EQ(amap.translate(10 * 64).local_line, Addr{2 * 64});
  EXPECT_EQ(amap.translate(4 * 64).tier, 1u);
}

TEST(AddressMapTiered, PromotionInstallAndDemotionRestoreIdentity) {
  TierConfig cfg = small_tiered();
  cfg.hdm_fast_ranges = {{0, 2 * 64}};  // Frames 0,1 pinned; 2..7 dynamic.
  AddressMap amap = AddressMap::tiered(cfg);
  const Addr page = 1000;
  EXPECT_FALSE(amap.remapped(page));

  const std::uint32_t frame = amap.alloc_frame();
  EXPECT_EQ(frame, 2u);  // Lowest dynamic frame first, deterministically.
  amap.set_migrating(page, true);
  EXPECT_TRUE(amap.migrating(page));
  // Mid-copy: translation still goes to the capacity source.
  EXPECT_EQ(amap.translate(page * 64 + 7).tier, 1u);

  amap.install_promotion(page, frame, /*epoch=*/1);
  amap.set_migrating(page, false);
  EXPECT_TRUE(amap.remapped(page));
  EXPECT_EQ(amap.frame_of(page), frame);
  EXPECT_EQ(amap.remap_occupancy(), 1u);
  const Translation t = amap.translate(page * 64 + 7);
  EXPECT_EQ(t.tier, 0u);
  EXPECT_EQ(t.local_line, Addr{2 * 64 + 7});

  amap.install_demotion(page);
  EXPECT_FALSE(amap.remapped(page));
  EXPECT_EQ(amap.remap_occupancy(), 0u);
  EXPECT_EQ(amap.translate(page * 64 + 7).tier, 1u);
  EXPECT_EQ(amap.translate(page * 64 + 7).local_line, page * 64 + 7);
  EXPECT_EQ(amap.alloc_frame(), 2u);  // Freed frame is reused lowest-first.
}

// ------------------------------------------------------- migration engine

/// Tiered overlay used by the determinism tests: tiny fast tier, short
/// epochs, aggressive promotion so a 2500-instruction run migrates plenty.
sys::SystemConfig tiered_over(sys::SystemConfig base, PolicyKind policy) {
  base.name += "+tier-" + std::string(policy_name(policy));
  base.tiering.enabled = true;
  base.tiering.policy = policy;
  base.tiering.fast_ddr_channels = 1;
  base.tiering.fast_capacity_pages = 64;
  base.tiering.epoch_cycles = 300;
  base.tiering.promote_threshold = 1;
  base.tiering.max_migrations_per_epoch = 8;
  base.tiering.max_concurrent_migrations = 2;
  return base;
}

std::string run_document(const sys::SystemConfig& cfg, const std::string& wl,
                         bool forced, Cycle* end_cycle, TierCounters* ctr = nullptr) {
  std::vector<workload::WorkloadParams> per_core(cfg.uarch.cores,
                                                 workload::find_workload(wl));
  sim::System s(cfg, per_core, /*seed=*/7);
  if (forced) s.set_tick_every_cycle(true);
  s.run(/*warmup_instr=*/500, /*measure_instr=*/2000);
  *end_cycle = s.now();
  if (ctr) *ctr = s.memory().tier_counters();
  return obs::json::snapshot_to_json(s.metrics().snapshot());
}

void expect_modes_equivalent_with_migration(const sys::SystemConfig& cfg,
                                            const std::string& wl) {
  Cycle end_event = 0, end_forced = 0;
  TierCounters ev{}, fo{};
  const std::string doc_event = run_document(cfg, wl, false, &end_event, &ev);
  const std::string doc_forced = run_document(cfg, wl, true, &end_forced, &fo);
  EXPECT_EQ(end_event, end_forced) << cfg.name << "/" << wl;
  EXPECT_EQ(doc_event, doc_forced) << cfg.name << "/" << wl;
  // The equivalence must hold *under load*: the run has to have actually
  // installed promotions, or the test proves nothing about migration.
  EXPECT_GT(ev.promotions, 0u) << cfg.name << "/" << wl;
  EXPECT_EQ(ev.promotions, fo.promotions) << cfg.name << "/" << wl;
}

TEST(TieringEquivalence, DdrOnlyMatchesForcedTicking) {
  expect_modes_equivalent_with_migration(
      tiered_over(sys::baseline_ddr(), PolicyKind::kHotnessLru), "tiered-hotcold");
}

TEST(TieringEquivalence, CxlMatchesForcedTicking) {
  expect_modes_equivalent_with_migration(
      tiered_over(sys::coaxial_4x(), PolicyKind::kHotnessLru), "tiered-hotcold");
}

TEST(TieringEquivalence, SwitchedFabricMatchesForcedTicking) {
  expect_modes_equivalent_with_migration(
      tiered_over(sys::coaxial_star(8, 4), PolicyKind::kHotnessLru), "tiered-hotcold");
}

TEST(TieringEquivalence, BandwidthSpillMatchesForcedTicking) {
  expect_modes_equivalent_with_migration(
      tiered_over(sys::coaxial_4x(), PolicyKind::kBandwidthSpill), "tiered-hotcold");
}

TEST(TieringEquivalence, RepeatedRunsAreByteIdentical) {
  const sys::SystemConfig cfg = tiered_over(sys::coaxial_4x(), PolicyKind::kHotnessLru);
  Cycle end_a = 0, end_b = 0;
  const std::string a = run_document(cfg, "tiered-hotcold", false, &end_a);
  const std::string b = run_document(cfg, "tiered-hotcold", false, &end_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_EQ(a, b);
}

TEST(TieringInvariants, RemapConservationAndCounterConsistency) {
  const sys::SystemConfig cfg = tiered_over(sys::coaxial_4x(), PolicyKind::kHotnessLru);
  std::vector<workload::WorkloadParams> per_core(
      cfg.uarch.cores, workload::find_workload("tiered-hotcold"));
  sim::System s(cfg, per_core, /*seed=*/7);
  s.run(/*warmup_instr=*/500, /*measure_instr=*/2000);
  const TierCounters c = s.memory().tier_counters();
  ASSERT_GT(c.epochs, 0u);
  ASSERT_GT(c.promotions, 0u);
  // Counters are lifetime totals, so every installed promotion that was not
  // later demoted is exactly one live remap entry.
  EXPECT_EQ(c.promotions - c.demotions, c.remap_occupancy);
  EXPECT_EQ(c.installs, c.promotions + c.demotions);
  EXPECT_GE(c.jobs_started, c.installs);
  // Each installed page copy moved page_lines lines each way.
  EXPECT_GE(c.migration_reads, c.installs * cfg.tiering.page_lines);
  EXPECT_GE(c.migration_writes, c.installs * cfg.tiering.page_lines);
  EXPECT_EQ(c.migration_bytes,
            (c.migration_reads + c.migration_writes) * kLineBytes);
  // The whole point: the hot set actually lands in the fast tier.
  EXPECT_GT(c.fast_accesses, 0u);
}

TEST(TieringInvariants, StaticPolicyNeverMigrates) {
  const sys::SystemConfig cfg =
      tiered_over(sys::coaxial_4x(), PolicyKind::kStaticInterleave);
  std::vector<workload::WorkloadParams> per_core(
      cfg.uarch.cores, workload::find_workload("tiered-hotcold"));
  sim::System s(cfg, per_core, /*seed=*/7);
  s.run(/*warmup_instr=*/500, /*measure_instr=*/2000);
  const TierCounters c = s.memory().tier_counters();
  EXPECT_GT(c.epochs, 0u);
  EXPECT_EQ(c.jobs_started, 0u);
  EXPECT_EQ(c.remap_occupancy, 0u);
  EXPECT_EQ(c.migration_bytes, 0u);
}

TEST(TieringMetrics, TierSubtreeAppearsOnlyWhenEnabled) {
  const sys::SystemConfig plain_cfg = sys::coaxial_4x();
  const std::vector<workload::WorkloadParams> per_core(
      plain_cfg.uarch.cores, workload::find_workload("tiered-hotcold"));
  sim::System plain(plain_cfg, per_core, 7);
  EXPECT_FALSE(plain.metrics().contains("tier/promotions"));
  sim::System tiered(tiered_over(plain_cfg, PolicyKind::kHotnessLru), per_core, 7);
  EXPECT_TRUE(tiered.metrics().contains("tier/promotions"));
  EXPECT_TRUE(tiered.metrics().contains("tier/fast/fraction"));
  EXPECT_TRUE(tiered.metrics().contains("mem/tier0/dram/ctrl00/reads_done"));
  EXPECT_TRUE(tiered.metrics().contains("mem/tier1/dram/ctrl00/reads_done"));
}

// -------------------------------------------------------- runner knobs

TEST(TieringRunner, RejectsUnknownPolicyAndBadBudgets) {
  sim::RunRequest bad_cfg =
      sim::homogeneous(sys::coaxial_tiered(), "tiered-hotcold", 200, 500);
  bad_cfg.config.tiering.epoch_cycles = 0;
  EXPECT_THROW(sim::run_one(bad_cfg), std::invalid_argument);
}

TEST(TieringRunner, OverridesApplyToTheRun) {
  sim::RunRequest req =
      sim::homogeneous(sys::coaxial_tiered(PolicyKind::kStaticInterleave),
                       "tiered-hotcold", 500, 2000);
  req.seed = 7;
  // Sweeps edit the preset's tiering config; run_one takes it as given.
  req.config.tiering.promote_threshold = 1;  // Short run: promote eagerly.
  req.config.tiering.policy = PolicyKind::kHotnessLru;
  req.config.tiering.fast_capacity_pages = 64;
  req.config.tiering.epoch_cycles = 300;
  const sim::RunResult r = sim::run_one(req);
  // The static preset would never migrate; the edited run does.
  EXPECT_GT(r.metrics.at("tier/promotions").count, 0u);
}

}  // namespace
}  // namespace coaxial::placement
