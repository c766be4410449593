#include "pool/directory.hpp"

#include <cassert>
#include <stdexcept>

namespace coaxial::pool {

Directory::Directory(std::uint32_t capacity, std::uint32_t n_hosts)
    : capacity_(capacity), n_hosts_(n_hosts) {
  if (capacity == 0) throw std::invalid_argument("pool::Directory: capacity == 0");
  if (n_hosts == 0 || n_hosts > 64) {
    throw std::invalid_argument("pool::Directory: n_hosts must be in [1, 64]");
  }
  entries_.resize(capacity);
  free_.reserve(capacity);
  // Popping from the back hands out slot 0 first (cosmetic but stable).
  for (std::uint32_t i = capacity; i > 0; --i) free_.push_back(i - 1);
  index_.reserve(capacity * 2);
}

const Directory::Entry* Directory::find(Addr page) const {
  const auto it = index_.find(page);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

Directory::Decision Directory::access(Addr page, std::uint32_t host, bool is_write) {
  assert(host < n_hosts_);
  Decision d;
  const std::uint64_t bit = std::uint64_t{1} << host;
  const auto it = index_.find(page);

  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    if (e.locked) {
      d.blocked = true;  // Same-page transaction in flight: retry at head.
      return d;
    }
    e.last_use = ++use_seq_;
    if (!is_write) {
      if (e.state == PageState::kModified && e.owner != host) {
        // Remote read of a modified page: recall the dirty copy, downgrade
        // to shared with both the old owner and the reader as sharers.
        d.needs_txn = true;
        d.dirty_mask = std::uint64_t{1} << e.owner;
        e.state = PageState::kShared;
        e.sharers = (std::uint64_t{1} << e.owner) | bit;
        e.locked = true;
        return d;
      }
      e.sharers |= bit;  // S read, or the owner re-reading its own M page.
      return d;
    }
    // Write path.
    if (e.state == PageState::kModified) {
      if (e.owner == host) return d;  // Already exclusive.
      // Ping-pong: ownership hops between writers, dirty data in tow.
      d.needs_txn = true;
      d.dirty_mask = std::uint64_t{1} << e.owner;
      d.pingpong = true;
      e.owner = host;
      e.sharers = bit;
      e.locked = true;
      return d;
    }
    const std::uint64_t others = e.sharers & ~bit;
    if (others == 0) {
      // Sole sharer upgrades in place — no traffic, like an E->M or a
      // directory-granted silent upgrade.
      d.upgrade_silent = true;
      e.state = PageState::kModified;
      e.owner = host;
      e.sharers = bit;
      return d;
    }
    d.needs_txn = true;
    d.clean_mask = others;
    e.state = PageState::kModified;
    e.owner = host;
    e.sharers = bit;
    e.locked = true;
    return d;
  }

  // Page absent: insert, evicting the LRU unlocked entry when full. The
  // victim's recall rides the same transaction as the triggering access.
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    std::uint32_t victim = capacity_;
    std::uint64_t best = ~std::uint64_t{0};
    for (std::uint32_t i = 0; i < capacity_; ++i) {
      const Entry& e = entries_[i];
      if (!e.valid || e.locked) continue;
      if (e.last_use < best) {
        best = e.last_use;
        victim = i;
      }
    }
    if (victim == capacity_) {
      d.blocked = true;  // Every entry mid-transaction: retry at head.
      return d;
    }
    Entry& v = entries_[victim];
    d.evicted = true;
    d.evicted_page = v.page;
    if (v.state == PageState::kModified) {
      d.dirty_mask = std::uint64_t{1} << v.owner;
    } else {
      d.clean_mask = v.sharers;
    }
    d.needs_txn = (d.dirty_mask | d.clean_mask) != 0;
    ++evictions_;
    index_.erase(v.page);
    --occupancy_;
    slot = victim;
  }

  Entry& e = entries_[slot];
  e.page = page;
  e.state = is_write ? PageState::kModified : PageState::kShared;
  e.sharers = bit;
  e.owner = host;
  e.last_use = ++use_seq_;
  e.valid = true;
  e.locked = d.needs_txn;  // Victim recall must finish before DRAM admission.
  index_.emplace(page, slot);
  ++occupancy_;
  ++inserts_;
  return d;
}

std::vector<Directory::Entry> Directory::fail_reset() {
  std::vector<Entry> snap;
  snap.reserve(occupancy_);
  for (const Entry& e : entries_) {
    if (e.valid) snap.push_back(e);
  }
  for (Entry& e : entries_) e = Entry{};
  index_.clear();
  free_.clear();
  for (std::uint32_t i = capacity_; i > 0; --i) free_.push_back(i - 1);
  occupancy_ = 0;
  ++unlock_epoch_;
  return snap;
}

void Directory::unlock(Addr page) {
  const auto it = index_.find(page);
  assert(it != index_.end() && entries_[it->second].locked);
  if (it != index_.end()) entries_[it->second].locked = false;
  ++unlock_epoch_;
}

}  // namespace coaxial::pool
