// Index-addressed table of in-flight records with a LIFO free list.
//
// Every in-flight table in the simulator — System's memory ops, CxlMemory's
// read slots and request cookies, ServiceDriver's reads, TieredMemory's
// migration jobs, PooledMemory's read slots, coherence transactions and
// parked demands — hands out small indices that travel as DRAM tokens and
// fabric payload cookies. acquire() reuses the most recently released index
// and appends only when none is free, so the index sequence (and with it
// every scan over size()) is a pure function of the acquire/release order.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace coaxial {

template <typename T>
class SlotPool {
 public:
  /// A slot holding a fresh T{}: the most recently released index, or a
  /// new one at size() when none is free.
  std::uint32_t acquire() {
    if (free_.empty()) {
      slots_.emplace_back();
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t i = free_.back();
    free_.pop_back();
    slots_[i] = T{};
    return i;
  }

  /// acquire(), holding `value`.
  std::uint32_t acquire(const T& value) {
    const std::uint32_t i = acquire();
    slots_[i] = value;
    return i;
  }

  /// Return slot `i`. Its contents stay as they are until it is acquired
  /// again, so a scan over size() may read released slots.
  void release(std::uint32_t i) {
    assert(i < slots_.size());
    free_.push_back(i);
  }

  T& operator[](std::uint32_t i) { return slots_[i]; }
  const T& operator[](std::uint32_t i) const { return slots_[i]; }

  /// Every index ever handed out, live or released; never shrinks.
  std::uint32_t size() const { return static_cast<std::uint32_t>(slots_.size()); }
  /// Slots acquired and not yet released.
  std::uint32_t live() const {
    return static_cast<std::uint32_t>(slots_.size() - free_.size());
  }

  void reserve(std::size_t n) {
    slots_.reserve(n);
    free_.reserve(n);
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace coaxial
