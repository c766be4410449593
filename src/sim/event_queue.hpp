// Payload-event queue of a single-host run: a calendar wheel with a total
// order.
//
// Events pop in (cycle, insertion sequence) order: earlier cycle first, and
// within one cycle in the order they were pushed, whatever their kind. That
// order is the contract the System's stats depend on (DESIGN.md §2), and it
// is the same on every compiler and standard library.
//
// Layout. A power-of-two ring holds one FIFO per cycle for the `ring_size`
// cycles starting at the drain cursor; nearly every event a System
// schedules lands there, because its delays are cache and NoC latencies.
// Events farther out go to a small overflow heap ordered by (cycle,
// sequence). All events live in one intrusive node pool: a bucket is a
// (head, tail) pair of node indices, so memory tracks the events in flight,
// not ring size times peak bucket occupancy.
//
// Overflow events of a cycle always precede that cycle's ring events: an
// event goes to the overflow heap only while its cycle is at least a ring
// length past the cursor, and the cursor never moves back, so every ring
// event of the same cycle was pushed later. A drain therefore serves a
// cycle's overflow events first and then its bucket, which is exactly
// (cycle, sequence) order without storing a sequence in the ring.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace coaxial::sim {

enum class EventKind : std::uint8_t {
  kL2Lookup,
  kLlcResult,
  kMemIssue,
  kMemArrive,
  kOpFinish,
  kL1Fill,
};

inline const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kL2Lookup: return "kL2Lookup";
    case EventKind::kLlcResult: return "kLlcResult";
    case EventKind::kMemIssue: return "kMemIssue";
    case EventKind::kMemArrive: return "kMemArrive";
    case EventKind::kOpFinish: return "kOpFinish";
    case EventKind::kL1Fill: return "kL1Fill";
  }
  return "?";
}

struct Event {
  Cycle cycle = 0;
  EventKind kind = EventKind::kL2Lookup;
  std::uint32_t a = 0;     ///< Op id, or core id for kL2Lookup / kL1Fill.
  Addr line = 0;           ///< Used by kL2Lookup / kL1Fill.
  std::uint64_t aux = 0;   ///< PC for kL2Lookup; from-memory flag for kOpFinish.
};

class EventQueue {
 public:
  /// `horizon` is the largest delay (in cycles past the drain cursor) the
  /// owner expects to schedule at; the ring covers at least horizon + 1
  /// cycles. Farther events are legal and take the overflow path.
  explicit EventQueue(Cycle horizon) {
    std::size_t size = 1;
    while (size <= horizon) size <<= 1;
    mask_ = size - 1;
    buckets_.assign(size, Bucket{});
    occupied_.assign((size + 63) / 64, 0);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t ring_size() const { return buckets_.size(); }
  std::size_t overflow_size() const { return overflow_.size(); }
  /// Lowest cycle an event may still be pushed at.
  Cycle cursor() const { return cursor_; }

  /// Queue `ev`. Throws std::logic_error if `ev.cycle` is before the drain
  /// cursor: that cycle has already been drained, so no order can hold.
  void push(const Event& ev) {
    if (ev.cycle < cursor_) {
      throw std::logic_error("EventQueue: " + std::string(to_string(ev.kind)) +
                             " event scheduled at cycle " + std::to_string(ev.cycle) +
                             ", before the drain cursor " + std::to_string(cursor_));
    }
    const std::uint32_t n = alloc_node(ev);
    ++size_;
    ++seq_;
    if (ev.cycle - cursor_ > mask_) {
      overflow_.push_back(Overflow{ev.cycle, seq_, n});
      std::push_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
      return;
    }
    const std::size_t b = static_cast<std::size_t>(ev.cycle) & mask_;
    Bucket& bucket = buckets_[b];
    if (bucket.head == kNil) {
      bucket.head = n;
      occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
    } else {
      nodes_[bucket.tail].next = n;
    }
    bucket.tail = n;
  }

  /// Pop the next event due at or before `now` into `out`, in (cycle,
  /// sequence) order. Returns false, with the cursor at `now`, once none is
  /// due. Events pushed at `now` while a drain runs are served by it.
  bool pop_due(Cycle now, Event& out) {
    while (size_ != 0) {
      if (!overflow_.empty() && overflow_.front().cycle == cursor_) {
        std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
        const std::uint32_t n = overflow_.back().node;
        overflow_.pop_back();
        take(n, out);
        return true;
      }
      const std::size_t b = static_cast<std::size_t>(cursor_) & mask_;
      Bucket& bucket = buckets_[b];
      if (bucket.head != kNil) {
        const std::uint32_t n = bucket.head;
        bucket.head = nodes_[n].next;
        if (bucket.head == kNil) occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
        take(n, out);
        return true;
      }
      const Cycle next = next_cycle();
      if (next > now) break;
      cursor_ = next;
    }
    cursor_ = std::max(cursor_, now);
    return false;
  }

  /// Cycle of the earliest queued event, or kNoCycle when empty.
  Cycle next_cycle() const {
    if (size_ == 0) return kNoCycle;
    Cycle next = overflow_.empty() ? kNoCycle : overflow_.front().cycle;
    // Ring events lie in [cursor, cursor + ring), so the first occupied
    // bucket at or after the cursor's, cyclically, holds the earliest.
    const std::size_t start = static_cast<std::size_t>(cursor_) & mask_;
    std::size_t b = first_occupied(start, buckets_.size());
    if (b == kNone) b = first_occupied(0, start);
    if (b != kNone) next = std::min(next, cursor_ + ((b - start) & mask_));
    return next;
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    Event ev;
    std::uint32_t next = kNil;  ///< Next node of the bucket, or of the free list.
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  struct Overflow {
    Cycle cycle;
    std::uint64_t seq;
    std::uint32_t node;
    bool operator>(const Overflow& o) const {
      return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
    }
  };

  static constexpr std::size_t kNone = ~std::size_t{0};

  /// First non-empty bucket in [lo, hi), or kNone.
  std::size_t first_occupied(std::size_t lo, std::size_t hi) const {
    for (std::size_t i = lo; i < hi; i = (i | 63) + 1) {
      const std::uint64_t word = occupied_[i >> 6] >> (i & 63);
      if (word != 0) {
        const std::size_t hit = i + static_cast<std::size_t>(__builtin_ctzll(word));
        return hit < hi ? hit : kNone;
      }
    }
    return kNone;
  }

  std::uint32_t alloc_node(const Event& ev) {
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[n].ev = ev;
    nodes_[n].next = kNil;
    return n;
  }

  void take(std::uint32_t n, Event& out) {
    out = nodes_[n].ev;
    nodes_[n].next = free_;
    free_ = n;
    --size_;
  }

  std::size_t mask_ = 0;
  Cycle cursor_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
  std::vector<Bucket> buckets_;
  std::vector<std::uint64_t> occupied_;  ///< One bit per non-empty bucket.
  std::vector<Overflow> overflow_;       ///< Min-heap on (cycle, seq).
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;
};

}  // namespace coaxial::sim
