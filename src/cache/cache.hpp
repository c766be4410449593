// Set-associative write-back cache tag/state array.
//
// This class is purely functional (tags, LRU state, dirty bits); access
// *timing* — hit latencies, MSHR occupancy, NoC traversal — is composed by
// the simulation layer, which lets the same class serve as L1D, L2, and an
// LLC slice. Addresses are cache-line indices (byte address >> 6).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/replacement.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace coaxial::cache {

struct Eviction {
  Addr line = 0;
  bool dirty = false;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;
  std::uint64_t writes = 0;

  double miss_ratio() const {
    const double total = static_cast<double>(hits + misses);
    return total == 0 ? 0.0 : static_cast<double>(misses) / total;
  }
};

class Cache {
 public:
  /// `size_bytes` must be a multiple of `ways * kLineBytes`. `scope`, when
  /// valid, registers this cache's hit/miss/fill/eviction counters into the
  /// metrics registry at construction.
  Cache(std::size_t size_bytes, std::uint32_t ways,
        ReplacementPolicy policy = ReplacementPolicy::kLru, obs::Scope scope = {});

  /// Tag probe without state update (used by the CALM oracle predictor).
  bool probe(Addr line) const;

  /// Ask the host CPU to start loading the set `line` maps to, ahead of a
  /// fill or lookup of it. A hint only: no cache state changes.
  void prefetch(Addr line) const {
    const std::size_t base = static_cast<std::size_t>(set_index(line)) * ways_;
    __builtin_prefetch(&tags_[base]);
    __builtin_prefetch(&tags_[base + ways_ - 1]);
    __builtin_prefetch(&repl_[base]);
    __builtin_prefetch(&repl_[base + ways_ - 1]);
    __builtin_prefetch(&flags_[base]);
  }

  /// Lookup for a read; updates recency on hit.
  bool lookup(Addr line);

  /// Lookup for a write; marks the line dirty on hit, updates recency.
  bool write(Addr line);

  /// Insert `line` (optionally dirty, optionally carrying RAS poison).
  /// Returns the victim if a valid line was displaced. The caller decides
  /// what a dirty victim means (write back to the next level or to memory).
  std::optional<Eviction> fill(Addr line, bool dirty, bool poisoned = false);

  /// True if `line` is present and holds poisoned data. Pure query (no
  /// recency update); callers typically scrub after recording the event.
  bool poisoned(Addr line) const;

  /// Clear the poison bit on `line` (machine-check recovery scrub). No-op
  /// if the line is absent.
  void clear_poison(Addr line);

  /// Mark an existing line dirty (e.g. store completing after an RFO fill).
  /// No-op if the line is absent.
  void mark_dirty(Addr line);

  /// Remove `line` if present; returns its eviction record.
  std::optional<Eviction> invalidate(Addr line);

  std::uint32_t sets() const { return sets_; }
  std::uint32_t ways() const { return ways_; }
  std::size_t size_bytes() const;
  ReplacementPolicy policy() const { return policy_; }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  // Tag/metadata state is split structure-of-arrays style: the hot path is
  // the associative tag scan (every lookup/write/fill walks a whole set on
  // a miss), and with tags packed 8 per host cache line a 16-way set costs
  // 2 line touches instead of the 6 an array-of-structs layout pays. The
  // replacement stamps and dirty/poison flags live in parallel arrays and
  // are only touched on a hit or a fill decision. An invalid way is encoded
  // as the reserved tag kInvalidTag (no line index reaches ~0: addresses
  // are byte addresses >> 6, so the top 6 bits are always clear).
  static constexpr Addr kInvalidTag = ~static_cast<Addr>(0);
  static constexpr std::size_t kNoWay = ~static_cast<std::size_t>(0);

  /// Flags array bit layout.
  static constexpr std::uint8_t kDirty = 1u << 0;
  static constexpr std::uint8_t kPoisoned = 1u << 1;

  std::uint32_t set_index(Addr line) const { return static_cast<std::uint32_t>(line) & set_mask_; }
  std::size_t find(Addr line) const;        ///< Way index, or kNoWay.
  void touch(std::size_t idx);              ///< Policy hit-promotion.
  std::size_t select_victim(std::size_t base);  ///< Victim within a full set.

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t set_mask_;
  ReplacementPolicy policy_;
  /// Sets fill ways front-to-back and only invalidate() punches holes, so
  /// while this is false the first invalid way in a scan proves no valid
  /// way (and hence no match) exists beyond it — scans of partially-filled
  /// sets stop early instead of walking all ways.
  bool holes_possible_ = false;
  std::uint64_t tick_ = 0;  ///< Monotonic recency stamp (LRU).
  Rng rng_{0xcace};         ///< Victim choice for the Random policy.
  std::vector<Addr> tags_;           ///< kInvalidTag = way not valid.
  std::vector<std::uint64_t> repl_;  ///< Policy metadata (see replacement.hpp).
  std::vector<std::uint8_t> flags_;  ///< kDirty | kPoisoned.
  CacheStats stats_;
};

}  // namespace coaxial::cache
