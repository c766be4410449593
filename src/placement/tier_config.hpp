// Tiered-placement configuration: the host-programmable side of the
// two-stage address translation layer (DESIGN.md §10).
//
// Stage 1 is an HDM-decoder-style range decode that assigns each physical
// page to a *tier* (0 = fast local DDR, 1 = CXL capacity), optionally
// overridden per page by a dynamic remap table the migration engine
// programs at epoch barriers. Stage 2 is the per-tier interleave (the
// legacy fabric::Router modes, unchanged). TierConfig carries everything
// the placement layer needs: the fast tier's size and backing channels,
// the epoch cadence, the migration policy and its budgets, and any
// statically fast-pinned HDM ranges.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "common/validate.hpp"

namespace coaxial::placement {

/// Pluggable hot-page migration policies (DESIGN.md §10).
enum class PolicyKind : std::uint8_t {
  kStaticInterleave,  ///< No migration: HDM ranges only (the legacy model).
  kHotnessLru,        ///< Promote hot pages, demote LRU fast residents.
  kBandwidthSpill,    ///< Hotness-LRU capped so a spill share of traffic
                      ///< stays on the capacity tier (bandwidth > latency).
};

const char* policy_name(PolicyKind kind);

/// One HDM-decoder range statically pinned to the fast tier. Both bounds
/// are in *lines* and must be page-aligned (multiples of page_lines).
struct HdmRange {
  Addr base_line = 0;
  Addr lines = 0;
};

struct TierConfig {
  bool enabled = false;
  PolicyKind policy = PolicyKind::kHotnessLru;

  /// Fast-tier substrate: local DDR5 channels (2 sub-channels each).
  std::uint32_t fast_ddr_channels = 1;

  /// Migration/remap granularity in lines (64 lines = 4 KiB pages).
  std::uint32_t page_lines = 64;

  /// Fast-tier capacity in pages (frames). Statically pinned HDM ranges
  /// consume frames first; the rest back the dynamic remap table.
  std::uint64_t fast_capacity_pages = 4096;

  /// Epoch length: access counters are sampled and remaps installed only
  /// at cycle boundaries that are multiples of this (the epoch barrier).
  Cycle epoch_cycles = 10'000;

  /// A capacity-homed page must be touched at least this many times in an
  /// epoch to be a promotion candidate.
  std::uint64_t promote_threshold = 4;

  /// Migration jobs (promotions + demotions) started per epoch barrier.
  std::uint32_t max_migrations_per_epoch = 32;

  /// Jobs copying concurrently; the rest queue in a backlog.
  std::uint32_t max_concurrent_migrations = 4;

  /// kBandwidthSpill: stop promoting once the fast tier serves this share
  /// of an epoch's accesses, keeping the remainder spilled to the CXL
  /// tier's independent bandwidth (the COAXIAL insight: aggregate
  /// bandwidth beats all-traffic-on-fastest-tier).
  double spill_fraction = 0.75;

  /// Stage-1 ranges decoded straight to the fast tier (no migration).
  std::vector<HdmRange> hdm_fast_ranges;

  /// Total pages pinned by hdm_fast_ranges.
  std::uint64_t native_fast_pages() const {
    std::uint64_t pages = 0;
    for (const HdmRange& r : hdm_fast_ranges) pages += r.lines / page_lines;
    return pages;
  }

  /// Validate (common/validate.hpp). No-op when disabled; throws
  /// std::invalid_argument with a structured message otherwise.
  void validate() const;
};

/// Aggregated placement/migration events, snapshotted under `tier/*` when
/// tiering is enabled (mirrors ras::RasCounters). All counters mutate only
/// inside tick() at deterministic cycles, never in can_accept(), so both
/// scheduler modes agree bit-for-bit.
struct TierCounters {
  std::uint64_t epochs = 0;         ///< Epoch barriers processed.
  std::uint64_t jobs_started = 0;   ///< Migration jobs created.
  std::uint64_t installs = 0;       ///< Remap installs at barriers.
  std::uint64_t promotions = 0;     ///< Installed capacity -> fast moves.
  std::uint64_t demotions = 0;      ///< Installed fast -> capacity moves.
  std::uint64_t migration_reads = 0;
  std::uint64_t migration_writes = 0;
  std::uint64_t migration_bytes = 0;
  std::uint64_t remap_occupancy = 0;  ///< Live dynamic remap entries.
  std::uint64_t fast_accesses = 0;      ///< Demand accesses served by tier 0.
  std::uint64_t capacity_accesses = 0;  ///< Demand accesses served by tier 1.

  double fast_fraction() const {
    const double total = static_cast<double>(fast_accesses + capacity_accesses);
    return total == 0 ? 0.0 : static_cast<double>(fast_accesses) / total;
  }
};

}  // namespace coaxial::placement
