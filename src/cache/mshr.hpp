// Miss Status Holding Registers: track outstanding misses per cache level
// and merge secondary misses to the same line.
//
// The MSHR is the structural limiter of memory-level parallelism at each
// level — when it fills, further misses stall at that level, which is how
// the simulator reproduces per-workload MLP limits.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "obs/profiler.hpp"

namespace coaxial::cache {

enum class MshrOutcome : std::uint8_t {
  kMerged,     ///< A miss to this line is already outstanding; waiter attached.
  kAllocated,  ///< New entry allocated; the caller must forward the miss.
  kFull,       ///< No free entry; the access must be retried.
};

/// A fixed-capacity flat table: live entries occupy slots [0, in_flight()),
/// found by a linear scan (capacities are tens of entries), and a fill
/// swap-removes its entry. Each entry's waiters form a FIFO list in one node
/// pool shared by all entries, so memory follows the waiters in flight and
/// steady state allocates nothing.
class Mshr {
 public:
  explicit Mshr(std::size_t capacity) : slots_(capacity) {}

  /// Record a miss for `line`, attaching `waiter` (an opaque id the owner
  /// uses to resume whoever was blocked on this line).
  MshrOutcome on_miss(Addr line, std::uint64_t waiter) {
    COAXIAL_PROF_SCOPE(kMshr);
    const std::size_t i = find(line);
    if (i != kNone) {
      const std::uint32_t n = alloc_node(waiter);
      nodes_[slots_[i].tail].next = n;
      slots_[i].tail = n;
      ++merged_;
      return MshrOutcome::kMerged;
    }
    if (full()) {
      ++rejected_;
      return MshrOutcome::kFull;
    }
    const std::uint32_t n = alloc_node(waiter);
    slots_[live_] = Slot{line, n, n};
    ++live_;
    ++allocated_;
    return MshrOutcome::kAllocated;
  }

  bool holds(Addr line) const { return find(line) != kNone; }

  /// Fill for `line`: releases the entry and returns its waiters in arrival
  /// order (empty if the line was not outstanding, which callers treat as a
  /// stray fill). The list stays valid until the next on_fill() of this
  /// MSHR, so the caller may complete waiters that issue new misses here or
  /// fill other MSHRs.
  const std::vector<std::uint64_t>& on_fill(Addr line) {
    COAXIAL_PROF_SCOPE(kMshr);
    filled_.clear();
    const std::size_t i = find(line);
    if (i == kNone) return filled_;
    for (std::uint32_t n = slots_[i].head; n != kNil;) {
      filled_.push_back(nodes_[n].waiter);
      const std::uint32_t next = nodes_[n].next;
      nodes_[n].next = free_;
      free_ = n;
      n = next;
    }
    slots_[i] = slots_[--live_];
    return filled_;
  }

  std::size_t in_flight() const { return live_; }
  std::size_t capacity() const { return slots_.size(); }
  bool full() const { return live_ >= slots_.size(); }

  std::uint64_t merged() const { return merged_; }
  std::uint64_t allocations() const { return allocated_; }
  std::uint64_t rejections() const { return rejected_; }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Slot {
    Addr line;
    std::uint32_t head;  ///< First waiter node.
    std::uint32_t tail;  ///< Last waiter node.
  };
  struct Node {
    std::uint64_t waiter;
    std::uint32_t next;  ///< Next waiter of the entry, or of the free list.
  };

  std::size_t find(Addr line) const {
    for (std::size_t i = 0; i < live_; ++i) {
      if (slots_[i].line == line) return i;
    }
    return kNone;
  }

  std::uint32_t alloc_node(std::uint64_t waiter) {
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n] = Node{waiter, kNil};
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{waiter, kNil});
    }
    return n;
  }

  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<Node> nodes_;  ///< Waiter nodes of every entry.
  std::uint32_t free_ = kNil;
  std::vector<std::uint64_t> filled_;  ///< Waiters handed out by on_fill().
  std::uint64_t merged_ = 0;
  std::uint64_t allocated_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace coaxial::cache
