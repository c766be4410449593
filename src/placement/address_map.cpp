#include "placement/address_map.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace coaxial::placement {

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kStaticInterleave: return "static_interleave";
    case PolicyKind::kHotnessLru: return "hotness_lru";
    case PolicyKind::kBandwidthSpill: return "bandwidth_aware_spill";
  }
  return "unknown";
}

void TierConfig::validate() const {
  if (!enabled) return;
  validate::require_nonzero("placement::TierConfig", "epoch_cycles", epoch_cycles);
  validate::require_nonzero("placement::TierConfig", "page_lines", page_lines);
  validate::require_nonzero("placement::TierConfig", "fast_capacity_pages",
                            fast_capacity_pages);
  validate::require_nonzero("placement::TierConfig", "fast_ddr_channels",
                            fast_ddr_channels);
  validate::require_nonzero("placement::TierConfig", "max_concurrent_migrations",
                            max_concurrent_migrations);
  validate::require_in_range("placement::TierConfig", "spill_fraction", spill_fraction,
                             0.0, 1.0);
  validate::require_positive("placement::TierConfig", "spill_fraction", spill_fraction);

  // HDM ranges: page-aligned, non-empty, non-overlapping, and the pinned
  // footprint must fit the fast tier ("capacity < footprint" rejection).
  std::vector<HdmRange> sorted = hdm_fast_ranges;
  std::sort(sorted.begin(), sorted.end(),
            [](const HdmRange& a, const HdmRange& b) { return a.base_line < b.base_line; });
  Addr prev_end = 0;
  bool first = true;
  for (const HdmRange& r : sorted) {
    validate::require_nonzero("placement::TierConfig", "hdm_fast_ranges[].lines",
                              r.lines);
    if (r.base_line % page_lines != 0 || r.lines % page_lines != 0) {
      validate::fail("placement::TierConfig", "hdm_fast_ranges",
                     "must be page-aligned (base_line and lines multiples of page_lines)",
                     std::to_string(r.base_line) + "+" + std::to_string(r.lines));
    }
    if (!first && r.base_line < prev_end) {
      validate::fail("placement::TierConfig", "hdm_fast_ranges", "must not overlap",
                     "range at line " + std::to_string(r.base_line) +
                         " overlaps previous end " + std::to_string(prev_end));
    }
    prev_end = r.base_line + r.lines;
    first = false;
  }
  if (native_fast_pages() > fast_capacity_pages) {
    validate::fail("placement::TierConfig", "fast_capacity_pages",
                   "must cover the HDM-pinned footprint",
                   std::to_string(fast_capacity_pages) + " pages < " +
                       std::to_string(native_fast_pages()) + " pinned");
  }
}

AddressMap AddressMap::tiered(const TierConfig& cfg) {
  cfg.validate();
  AddressMap m;
  m.cfg_ = cfg;
  std::vector<HdmRange> sorted = cfg.hdm_fast_ranges;
  std::sort(sorted.begin(), sorted.end(),
            [](const HdmRange& a, const HdmRange& b) { return a.base_line < b.base_line; });
  std::uint64_t frame_base = 0;
  for (const HdmRange& r : sorted) {
    DecodedRange d;
    d.base_page = r.base_line / cfg.page_lines;
    d.pages = r.lines / cfg.page_lines;
    d.frame_base = frame_base;
    frame_base += d.pages;
    m.ranges_.push_back(d);
  }
  m.native_frames_ = static_cast<std::uint32_t>(frame_base);
  m.frames_.resize(cfg.fast_capacity_pages);
  for (const DecodedRange& d : m.ranges_) {
    for (Addr p = 0; p < d.pages; ++p) {
      FrameMeta& f = m.frames_[d.frame_base + p];
      f.page = d.base_page + p;
      f.in_use = true;
    }
  }
  // Free pool: every dynamic frame, as a min-heap so allocation always
  // hands out the lowest id (deterministic regardless of release order).
  m.free_.reserve(cfg.fast_capacity_pages - frame_base);
  for (std::uint64_t f = cfg.fast_capacity_pages; f > frame_base; --f) {
    m.free_.push_back(static_cast<std::uint32_t>(f - 1));
  }
  std::make_heap(m.free_.begin(), m.free_.end(), std::greater<>{});
  return m;
}

int AddressMap::range_of(Addr page) const {
  // Binary search over the sorted ranges (HDM decoders are priority-ordered
  // comparators in hardware; non-overlap makes order irrelevant here).
  int lo = 0, hi = static_cast<int>(ranges_.size()) - 1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    const DecodedRange& r = ranges_[mid];
    if (page < r.base_page) {
      hi = mid - 1;
    } else if (page >= r.base_page + r.pages) {
      lo = mid + 1;
    } else {
      return mid;
    }
  }
  return -1;
}

Translation AddressMap::translate(Addr line) const {
  const Addr page = line / cfg_.page_lines;
  const Addr offset = line % cfg_.page_lines;
  const auto it = remap_.find(page);
  if (it != remap_.end()) {
    return {0, static_cast<Addr>(it->second) * cfg_.page_lines + offset};
  }
  const int r = range_of(page);
  if (r >= 0) {
    const DecodedRange& d = ranges_[static_cast<std::size_t>(r)];
    return {0, (d.frame_base + (page - d.base_page)) * cfg_.page_lines + offset};
  }
  return {1, line};  // Capacity tier backs the whole address space.
}

std::uint32_t AddressMap::alloc_frame() {
  assert(!free_.empty());
  std::pop_heap(free_.begin(), free_.end(), std::greater<>{});
  const std::uint32_t frame = free_.back();
  free_.pop_back();
  frames_[frame].in_use = true;
  return frame;
}

void AddressMap::push_free(std::uint32_t frame) {
  free_.push_back(frame);
  std::push_heap(free_.begin(), free_.end(), std::greater<>{});
}

void AddressMap::set_migrating(Addr page, bool on) {
  if (on) {
    migrating_.insert(page);
  } else {
    migrating_.erase(page);
  }
}

void AddressMap::install_promotion(Addr page, std::uint32_t frame, std::uint64_t epoch) {
  assert(frame >= native_frames_ && frames_[frame].in_use);
  remap_.emplace(page, frame);
  FrameMeta& f = frames_[frame];
  f.page = page;
  f.last_hot_epoch = epoch;
  f.last_count = 0;
}

void AddressMap::install_demotion(Addr page) {
  const auto it = remap_.find(page);
  assert(it != remap_.end());
  const std::uint32_t frame = it->second;
  remap_.erase(it);
  frames_[frame] = FrameMeta{};
  push_free(frame);
}

void AddressMap::release_frame(std::uint32_t frame) {
  assert(frame >= native_frames_ && frames_[frame].in_use);
  frames_[frame] = FrameMeta{};
  push_free(frame);
}

void AddressMap::touch_resident(Addr page, std::uint64_t epoch, std::uint64_t count) {
  const auto it = remap_.find(page);
  if (it == remap_.end()) return;
  FrameMeta& f = frames_[it->second];
  f.last_hot_epoch = epoch;
  f.last_count = count;
}

}  // namespace coaxial::placement
