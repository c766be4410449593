// Two-stage address translation (DESIGN.md §10), stage 1.
//
// An AddressMap is an HDM-decoder-style range decode that assigns each page
// to tier 0 (fast local DDR) or tier 1 (CXL capacity), with a dynamic
// per-page remap table layered on top. TieredMemory owns one; each tier's
// memory system then applies its own stage 2 (a fabric::Router) internally.
//
// All mutating calls (remap installs, frame allocation, migrating marks)
// happen only from TieredMemory::tick() at deterministic cycles; the
// translate/route lookups are pure so can_accept() stays const and both
// scheduler modes agree bit-for-bit.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/units.hpp"
#include "placement/tier_config.hpp"

namespace coaxial::placement {

/// Stage-1 result: which tier a line lives on and the line index within
/// that tier's local address space.
struct Translation {
  std::uint32_t tier = 1;  ///< 0 = fast local DDR, 1 = capacity.
  Addr local_line = 0;
};

/// Epoch access counters: one note() per demand access, first-touch
/// insertion order (deterministic because the access() call sequence is
/// identical across scheduler modes). Cleared at every epoch barrier.
class PageHeat {
 public:
  void note(Addr page) {
    auto [it, fresh] = index_.try_emplace(page, entries_.size());
    if (fresh) {
      entries_.push_back({page, 1});
    } else {
      ++entries_[it->second].count;
    }
  }

  struct Entry {
    Addr page = 0;
    std::uint64_t count = 0;
  };
  const std::vector<Entry>& entries() const { return entries_; }

  std::uint64_t count_of(Addr page) const {
    auto it = index_.find(page);
    return it == index_.end() ? 0 : entries_[it->second].count;
  }

  void clear() {
    entries_.clear();
    index_.clear();
  }

 private:
  std::vector<Entry> entries_;
  std::unordered_map<Addr, std::size_t> index_;
};

class AddressMap {
 public:
  /// Stage-1 tiered decode for `cfg` (validates; throws on bad config).
  static AddressMap tiered(const TierConfig& cfg);

  // ---- lookups (pure) ----

  Addr page_of(Addr line) const { return line / cfg_.page_lines; }

  /// Remap override first, then the HDM range decode, else capacity
  /// (identity mapping: the capacity tier holds the full address space).
  Translation translate(Addr line) const;

  bool remapped(Addr page) const { return remap_.find(page) != remap_.end(); }
  bool native_fast(Addr page) const { return range_of(page) >= 0; }
  bool migrating(Addr page) const { return migrating_.find(page) != migrating_.end(); }
  std::uint32_t free_frames() const { return static_cast<std::uint32_t>(free_.size()); }
  std::uint64_t remap_occupancy() const { return remap_.size(); }
  std::uint32_t native_frames() const { return native_frames_; }
  std::uint32_t frame_of(Addr page) const { return remap_.at(page); }

  /// Dynamic-frame metadata (index == frame id). Frames below
  /// native_frames() are permanently pinned by HDM ranges.
  struct FrameMeta {
    Addr page = 0;
    bool in_use = false;
    std::uint64_t last_hot_epoch = 0;  ///< Last epoch the page was touched.
    std::uint64_t last_count = 0;      ///< Touches in that epoch.
  };
  const std::vector<FrameMeta>& frames() const { return frames_; }

  // ---- mutations (TieredMemory::tick() only) ----

  /// Reserve the lowest free dynamic frame for an in-flight promotion.
  /// The frame is in_use but unmapped until install_promotion().
  std::uint32_t alloc_frame();

  void set_migrating(Addr page, bool on);

  /// Publish a promotion: `page` now reads/writes through `frame`.
  void install_promotion(Addr page, std::uint32_t frame, std::uint64_t epoch);

  /// Publish a demotion: `page` returns to its capacity-identity mapping
  /// and its frame goes back to the free pool.
  void install_demotion(Addr page);

  /// Return a reserved-but-unmapped dynamic frame (from alloc_frame()) to
  /// the free pool without installing anything — an aborted promotion whose
  /// source device died mid-copy (DESIGN.md §13).
  void release_frame(std::uint32_t frame);

  /// Barrier bookkeeping: record that a resident page was hot this epoch.
  void touch_resident(Addr page, std::uint64_t epoch, std::uint64_t count);

  const TierConfig& config() const { return cfg_; }

 private:
  AddressMap() = default;

  /// Index into ranges_ containing `page`, or -1.
  int range_of(Addr page) const;

  /// Restore the min-heap property after push_back on free_.
  void push_free(std::uint32_t frame);

  TierConfig cfg_;
  struct DecodedRange {
    Addr base_page = 0;
    Addr pages = 0;
    std::uint64_t frame_base = 0;  ///< Prefix sum over preceding ranges.
  };
  std::vector<DecodedRange> ranges_;  ///< Sorted by base_page.
  std::uint32_t native_frames_ = 0;
  std::vector<FrameMeta> frames_;
  std::vector<std::uint32_t> free_;  ///< Min-heap of free dynamic frames.
  std::unordered_map<Addr, std::uint32_t> remap_;  ///< page -> frame.
  std::unordered_set<Addr> migrating_;
};

}  // namespace coaxial::placement
