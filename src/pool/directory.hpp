// Per-pooled-device coherence directory (DESIGN.md §12).
//
// Tracks, at page granularity, which hosts cache each shared page and in
// what state — a MESI-style sharer bitmask plus a single owner for modified
// pages. The directory is the device-side serialisation point: every access
// admitted from a host's ingress queue is presented here first, and the
// decision says whether the access may proceed to DRAM immediately or must
// first complete a coherence transaction (back-invalidations / dirty
// recalls) whose messages PooledMemory puts on the real fabric.
//
// The structure is bounded (directory_entries); inserting into a full set
// evicts the least-recently-used unlocked entry and recalls its page from
// every sharer — absence therefore means "cached nowhere", which keeps the
// decode precise. All mutations happen synchronously inside access(), at
// deterministic admission cycles, so both scheduler modes agree
// bit-for-bit.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace coaxial::pool {

enum class PageState : std::uint8_t { kShared, kModified };

class Directory {
 public:
  Directory(std::uint32_t capacity, std::uint32_t n_hosts);

  struct Entry {
    Addr page = 0;
    PageState state = PageState::kShared;
    std::uint64_t sharers = 0;   ///< Bitmask over hosts (<= 64).
    std::uint32_t owner = 0;     ///< Valid when state == kModified.
    std::uint64_t last_use = 0;  ///< Admission sequence, for LRU eviction.
    bool valid = false;
    bool locked = false;  ///< A coherence transaction is in flight.
  };

  /// Outcome of presenting one admitted access.
  struct Decision {
    bool blocked = false;    ///< Entry locked / no evictable victim: retry.
    bool needs_txn = false;  ///< Invalidation round must complete first.
    std::uint64_t clean_mask = 0;  ///< Hosts to invalidate (no data back).
    std::uint64_t dirty_mask = 0;  ///< Hosts to recall (modified data back).
    bool evicted = false;    ///< A victim entry was recalled to make room.
    Addr evicted_page = 0;
    bool upgrade_silent = false;   ///< S->M with no other sharer.
    bool pingpong = false;         ///< M ownership handoff.
  };

  /// Present an access from `host`. On needs_txn the entry has already
  /// transitioned to its post-transaction state and is locked; call
  /// unlock(page) once every invalidation in the masks has been acked.
  /// A demand invalidation and an eviction recall are mutually exclusive:
  /// the former needs a present entry, the latter an absent one.
  Decision access(Addr page, std::uint32_t host, bool is_write);

  void unlock(Addr page);

  /// Bumped by unlock() and fail_reset(). A blocked access() mutates
  /// nothing, and only those two calls can clear what blocked it (a
  /// locked entry, or a full set with every entry locked), so an access
  /// blocked at epoch E stays blocked while the epoch is still E.
  std::uint64_t unlock_epoch() const { return unlock_epoch_; }

  /// Surprise-removal teardown (DESIGN.md §13): returns every valid entry
  /// in slot order (deterministic), then resets the directory to empty —
  /// absence still means "cached nowhere", which becomes true again once
  /// the recovery invalidations built from the snapshot have landed.
  /// Locked entries are included; their in-flight transactions are the
  /// caller's to retire (it must not unlock() them here afterwards).
  std::vector<Entry> fail_reset();

  const Entry* find(Addr page) const;
  std::uint32_t occupancy() const { return occupancy_; }
  std::uint32_t capacity() const { return capacity_; }
  std::uint64_t inserts() const { return inserts_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  std::uint32_t capacity_;
  std::uint32_t n_hosts_;
  std::uint32_t occupancy_ = 0;
  std::uint64_t use_seq_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t unlock_epoch_ = 0;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;
  std::unordered_map<Addr, std::uint32_t> index_;
};

}  // namespace coaxial::pool
