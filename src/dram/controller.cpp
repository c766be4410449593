#include "dram/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace coaxial::dram {

namespace {
/// FR-FCFS fairness guard: only the oldest `kScanWindow` entries of a queue
/// compete for issue, bounding both starvation and per-tick scan cost.
constexpr std::size_t kScanWindow = 16;

/// Rejects geometries whose indices overflow the packed ScanKey fields.
const Geometry& checked_key_widths(const Geometry& g) {
  if (std::uint64_t{g.banks()} * g.ranks > (std::uint64_t{1} << 16)) {
    throw std::invalid_argument("dram::Controller: more than 65536 banks per sub-channel");
  }
  if (std::uint64_t{g.ranks} * g.bank_groups > (std::uint64_t{1} << 8)) {
    throw std::invalid_argument(
        "dram::Controller: more than 256 rank x bank-group pairs per sub-channel");
  }
  return g;
}
}  // namespace

Controller::Controller(const Timing& timing, const Geometry& geometry,
                       std::size_t read_queue_depth, std::size_t write_queue_depth,
                       obs::Scope scope)
    : timing_(timing),
      amap_(checked_key_widths(geometry), geometry.permutation_interleave),
      read_depth_(read_queue_depth),
      write_depth_(write_queue_depth),
      multi_rank_(geometry.ranks > 1),
      banks_(geometry.total_banks()),
      open_row_(geometry.total_banks(), kClosedRow),
      bank_last_use_(geometry.total_banks(), 0),
      idle_eligible_(geometry.total_banks(), kNoCycle),
      next_act_rank_(geometry.ranks, 0),
      next_act_group_(static_cast<std::size_t>(geometry.ranks) * geometry.bank_groups, 0),
      next_cas_rank_(geometry.ranks, 0),
      next_cas_group_(static_cast<std::size_t>(geometry.ranks) * geometry.bank_groups, 0),
      next_rd_after_wr_group_(static_cast<std::size_t>(geometry.ranks) * geometry.bank_groups, 0),
      faw_(geometry.ranks),
      next_refresh_(timing.refi),
      checker_(timing, geometry) {
  read_q_.reserve(read_depth_);
  write_q_.reserve(write_depth_);
  completions_.reserve(16);
  if (scope.valid()) {
    scope.expose_counter("reads_done", [this] { return stats_.reads_done; });
    scope.expose_counter("writes_done", [this] { return stats_.writes_done; });
    scope.expose_counter("reads_forwarded", [this] { return stats_.reads_forwarded; });
    scope.expose_counter("row_hits", [this] { return stats_.row_hits; });
    scope.expose_counter("row_misses", [this] { return stats_.row_misses; });
    scope.expose_counter("row_conflicts", [this] { return stats_.row_conflicts; });
    scope.expose_counter("activates", [this] { return stats_.activates; });
    scope.expose_counter("precharges", [this] { return stats_.precharges; });
    scope.expose_counter("refreshes", [this] { return stats_.refreshes; });
    scope.expose_counter("data_bus_busy_cycles",
                         [this] { return stats_.data_bus_busy_cycles; });
    scope.expose("read_queue_delay_sum", [this] { return stats_.read_queue_delay_sum; });
    scope.expose("read_service_sum", [this] { return stats_.read_service_sum; });
    scope.expose_histogram("read_latency", read_hist_);
    const obs::Scope inv = scope.sub("invariants");
    inv.expose_counter("violations", [this] { return checker_.violations(); });
    inv.expose_counter("trc", [this] { return checker_.trc_violations(); });
    inv.expose_counter("trcd", [this] { return checker_.trcd_violations(); });
    inv.expose_counter("trp", [this] { return checker_.trp_violations(); });
    inv.expose_counter("tras", [this] { return checker_.tras_violations(); });
    inv.expose_counter("tccd_l", [this] { return checker_.tccd_violations(); });
    inv.expose_counter("tfaw", [this] { return checker_.tfaw_violations(); });
    inv.expose_counter("refresh", [this] { return checker_.refresh_violations(); });
  }
}

bool Controller::can_accept(bool is_write) const {
  return is_write ? write_q_.size() < write_depth_ : read_q_.size() < read_depth_;
}

bool Controller::enqueue(Addr local_line, bool is_write, Cycle now, std::uint64_t token) {
  if (!can_accept(is_write)) return false;
  if (!is_write) {
    // Write-to-read forwarding: a read that hits a queued write is served
    // from the controller's write buffer without touching DRAM. The write
    // queue's line array is contiguous, 8 bytes an entry, so the check is
    // one short linear scan.
    const std::vector<Addr>& wl = write_q_.lines;
    if (std::find(wl.begin(), wl.end(), local_line) != wl.end()) {
      completions_.push_back({token, now + 1, 1, 0});
      ++stats_.reads_forwarded;
      read_hist_.add(1);
      return true;
    }
  }
  const Geometry& g = amap_.geometry();
  Request req;
  req.coord = amap_.map(local_line);
  req.arrival = now;
  req.token = token;
  ScanKey key;
  key.row = req.coord.row;
  key.bank = static_cast<std::uint16_t>(req.coord.flat_bank_all(g));
  key.rank = static_cast<std::uint8_t>(req.coord.rank);
  key.rg = static_cast<std::uint8_t>(req.coord.rank * g.bank_groups + req.coord.bank_group);
  Queue& q = is_write ? write_q_ : read_q_;
  q.reqs.push_back(req);
  q.keys.push_back(key);
  q.lines.push_back(local_line);
  // A new candidate entered the queue window: the cached next-ready cycle
  // for that queue no longer bounds it, and neither does the whole-tick
  // wake bound (drain-mode watermarks also depend on queue depth).
  queue_ready_[is_write ? 1 : 0] = 0;
  wake_cache_ = 0;
  return true;
}

Cycle Controller::tick(Cycle now) {
  // Whole-tick fast path (see wake_cache_ in the header): before the cached
  // bound, a full tick issues nothing, mutates nothing, and returns this
  // same bound — so skip it entirely. Checked before the profiler scope:
  // a few-ns early return is not worth attributing.
  if (ready_cache_enabled_ && wake_cache_ != 0 && now < wake_cache_) {
    return wake_cache_;
  }
  COAXIAL_PROF_SCOPE(kDramTick);
  if (now >= next_refresh_ && !refresh_pending_) {
    // Arming refresh changes which candidates a scan may consider (ACTs are
    // suppressed), so cached per-queue bounds from before the transition
    // no longer mirror a fresh scan. Drop them to keep cached and brute-
    // force wake bounds bit-identical.
    refresh_pending_ = true;
    note_command();
  }
  if (refresh_pending_) {
    if (try_refresh(now)) return now + 1;
    // While waiting to close banks for refresh we still allow CAS commands
    // below, so in-flight row hits drain naturally; ACTs are suppressed by
    // try_prep's refresh check.
  }
  if (read_q_.empty() && write_q_.empty()) {
    // Nothing to schedule; opportunistically close idled rows so the next
    // burst starts from precharged banks (adaptive open-page).
    if (open_banks_ > 0) idle_precharge(now);
    return compute_wake(now);
  }

  // Write-drain watermark policy (DRAMsim3-style): drain once the write
  // queue crosses half full (or reads are absent), down to 1/8. Frequent
  // read/write turnarounds are a first-order capacity loss on real
  // controllers; modelling them matters for the loaded-latency curve.
  if (!draining_writes_) {
    if (write_q_.size() >= write_depth_ / 2 || (read_q_.empty() && !write_q_.empty())) {
      draining_writes_ = true;
    }
  } else {
    if (write_q_.size() <= write_depth_ / 8 && !read_q_.empty()) draining_writes_ = false;
    if (write_q_.empty()) draining_writes_ = false;
  }

  if (draining_writes_) {
    if (try_issue(write_q_, /*is_write=*/true, now)) return now + 1;
    if (try_issue(read_q_, /*is_write=*/false, now)) return now + 1;
  } else {
    if (try_issue(read_q_, /*is_write=*/false, now)) return now + 1;
    if (try_issue(write_q_, /*is_write=*/true, now)) return now + 1;
  }
  idle_precharge(now);
  return compute_wake(now);
}

Cycle Controller::cas_earliest(const ScanKey& key, bool is_write) const {
  const Bank& b = banks_[key.bank];
  Cycle t = is_write ? b.next_wr : b.next_rd;
  t = std::max(t, next_cas_rank_[key.rank]);
  t = std::max(t, next_cas_group_[key.rg]);
  // Rank-to-rank bus turnaround (tCS): switching ranks mid-stream stalls
  // the shared data bus briefly — the 2DPC bandwidth cost.
  if (multi_rank_ && key.rank != last_cas_rank_) {
    t = std::max(t, last_cas_end_ + timing_.cs);
  }
  if (is_write) {
    t = std::max(t, next_wr_bus_);
  } else {
    t = std::max(t, std::max(next_rd_bus_, next_rd_after_wr_group_[key.rg]));
  }
  return t;
}

Cycle Controller::prep_earliest(const ScanKey& key, std::uint32_t open_row) const {
  // Selects instead of branching: whether a window candidate's bank is open
  // is close to a coin flip under random traffic.
  const Bank& b = banks_[key.bank];
  Cycle act = std::max(b.next_act, next_act_rank_[key.rank]);
  act = std::max(act, next_act_group_[key.rg]);
  return open_row != kClosedRow ? b.next_pre : act;  // Open on another row: PRE.
}

Cycle Controller::compute_wake(Cycle now) const {
  // Every constraint that gated an issue this cycle is a timestamp frozen
  // until the controller acts again, so the min over all candidates is a
  // sound wake-up: nothing can become issueable earlier.
  Cycle wake = kNoCycle;
  if (refresh_pending_) {
    // Blocked on closing banks (or on their PRE/ACT timing) for refresh.
    bool any_open = false;
    for (const Bank& b : banks_) {
      if (!b.open) continue;
      any_open = true;
      wake = std::min(wake, std::max(now + 1, b.next_pre));
    }
    if (!any_open) {
      Cycle ready = now + 1;
      for (const Bank& b : banks_) ready = std::max(ready, b.next_act);
      wake = std::min(wake, ready);
    }
  } else {
    wake = std::min(wake, std::max(now + 1, next_refresh_));
  }
  const auto queue_candidates = [&](const Queue& q, bool is_write) {
    // A still-valid cached bound is exact, not just conservative: it was a
    // min over frozen candidate timestamps, none of which were floored (a
    // floored candidate would have expired the cache), and refresh_pending_
    // cannot have changed inside a validity window (the transition clears
    // the cache). So reuse it instead of rescanning the window.
    const std::size_t qi = is_write ? 1 : 0;
    if (ready_cache_enabled_ && queue_ready_[qi] != 0 && now < queue_ready_[qi]) {
      wake = std::min(wake, queue_ready_[qi]);
      return;
    }
    const std::size_t window = std::min(q.size(), kScanWindow);
    Cycle q_ready = kNoCycle;
    for (std::size_t i = 0; i < window; ++i) {
      const ScanKey& key = q.keys[i];
      const std::uint32_t open_row = open_row_[key.bank];
      if (open_row == key.row) {
        q_ready = std::min(q_ready, std::max(now + 1, cas_earliest(key, is_write)));
      } else if (!refresh_pending_) {
        q_ready = std::min(q_ready, std::max(now + 1, prep_earliest(key, open_row)));
      }
    }
    // Cache the per-queue bound: until q_ready (and absent any command or
    // enqueue, which clear it) a scan of this queue cannot issue anything.
    queue_ready_[is_write ? 1 : 0] = q_ready;
    wake = std::min(wake, q_ready);
  };
  queue_candidates(read_q_, /*is_write=*/false);
  queue_candidates(write_q_, /*is_write=*/true);
  if (timing_.idle_precharge != 0 && open_banks_ > 0) {
    // A valid idle_ready_ is the exact eligibility minimum; kNoCycle means
    // "no open bank can become eligible" and the min is then a no-op.
    if (!ready_cache_enabled_ || idle_ready_ == 0) {
      Cycle raw_min = kNoCycle;
      std::uint32_t min_bank = 0;
      for (std::uint32_t i = 0; i < idle_eligible_.size(); ++i) {
        if (idle_eligible_[i] < raw_min) {
          raw_min = idle_eligible_[i];
          min_bank = i;
        }
      }
      idle_ready_ = raw_min;
      idle_min_bank_ = min_bank;
    }
    wake = std::min(wake, std::max(now + 1, idle_ready_));
  }
  wake_cache_ = wake;
  return wake;
}

void Controller::idle_precharge(Cycle now) {
  // Adaptive open-page: close a bank whose open row has been idle, so
  // lightly-loaded (and random) traffic pays ACT+CAS rather than
  // PRE+ACT+CAS (the paper's ~40 ns unloaded latency). Disabled when
  // timing_.idle_precharge is 0.
  if (timing_.idle_precharge == 0) return;
  if (open_banks_ == 0) return;
  // A valid eligibility bound (exact, see idle_ready_) in the future proves
  // this scan would close nothing.
  if (ready_cache_enabled_ && idle_ready_ != 0 && now < idle_ready_) return;
  // Closed banks sit at kNoCycle in idle_eligible_, so one contiguous pass
  // replaces the open-bank walk over scattered Bank structs; iteration order
  // (and hence which eligible bank closes first) is unchanged.
  Cycle raw_min = kNoCycle;
  std::uint32_t min_bank = 0;
  const std::size_t n = idle_eligible_.size();
  for (std::uint32_t i = 0; i < n; ++i) {
    const Cycle eligible = idle_eligible_[i];
    if (eligible <= now) {
      precharge(i, now);
      note_command();
      return;  // One command per cycle.
    }
    if (eligible < raw_min) {
      raw_min = eligible;
      min_bank = i;
    }
  }
  // Failed scan: the accumulated min is the exact bound compute_wake and
  // later ticks reuse until a bank's eligibility moves it.
  idle_ready_ = raw_min;
  idle_min_bank_ = min_bank;
}

void Controller::precharge(std::uint32_t bank, Cycle now) {
  Bank& b = banks_[bank];
  b.open = false;
  open_row_[bank] = kClosedRow;
  --open_banks_;
  set_idle_eligible(bank, kNoCycle);
  b.next_act = std::max(b.next_act, now + timing_.rp);
  ++stats_.precharges;
  checker_.on_pre(bank, now);
}

void Controller::set_idle_eligible(std::uint32_t bank, Cycle eligible) {
  const Cycle old = idle_eligible_[bank];
  idle_eligible_[bank] = eligible;
  if (idle_ready_ == 0) return;  // Unknown already; the next scan rebuilds it.
  if (eligible < idle_ready_) {
    idle_ready_ = eligible;
    idle_min_bank_ = bank;
  } else if (bank == idle_min_bank_ && eligible > old) {
    idle_ready_ = 0;  // The minimum moved later; another bank may hold it now.
  }
}

bool Controller::try_refresh(Cycle now) {
  // Close all open banks first (respecting per-bank PRE timing), then hold
  // the whole rank for tRFC.
  bool any_open = false;
  for (std::uint32_t i = 0; i < banks_.size(); ++i) {
    Bank& b = banks_[i];
    if (!b.open) continue;
    any_open = true;
    if (now >= b.next_pre) {
      precharge(i, now);
      note_command();
      return true;  // One command per cycle.
    }
  }
  if (any_open) return false;
  // All banks closed: wait until every bank may legally accept an ACT, which
  // guarantees preceding PREs have completed, then refresh.
  Cycle ready = now;
  for (const Bank& b : banks_) ready = std::max(ready, b.next_act);
  if (ready > now) return false;
  for (Bank& b : banks_) b.next_act = now + timing_.rfc;
  ++stats_.refreshes;
  checker_.on_refresh(now, next_refresh_);
  next_refresh_ += timing_.refi;
  refresh_pending_ = false;
  note_command();
  return true;
}

void Controller::issue_cas(const Request& req, const ScanKey& key, bool is_write,
                           Cycle now) {
  const Geometry& g = amap_.geometry();
  Bank& b = banks_[key.bank];
  bank_last_use_[key.bank] = now;
  checker_.on_cas(req.coord, is_write, now);

  // Row-locality classification at service time: a request that needed no
  // preparatory command of its own rode an already-open row.
  Cycle ideal_service = timing_.cl + timing_.bl;
  if (req.needed_pre) {
    ++stats_.row_conflicts;
    ideal_service += timing_.rp + timing_.rcd;
  } else if (req.needed_act) {
    ++stats_.row_misses;
    ideal_service += timing_.rcd;
  } else {
    ++stats_.row_hits;
  }

  next_cas_rank_[key.rank] = now + timing_.ccd_s;
  next_cas_group_[key.rg] = now + timing_.ccd_l;
  stats_.data_bus_busy_cycles += timing_.bl;
  last_cas_end_ = now + timing_.bl;
  last_cas_rank_ = key.rank;

  if (is_write) {
    const Cycle data_end = now + timing_.cwl + timing_.bl;
    b.next_pre = std::max(b.next_pre, data_end + timing_.wr);
    set_idle_eligible(key.bank, std::max(b.next_pre, now + timing_.idle_precharge));
    // tWTR starts at the end of write data (within the written rank).
    for (std::uint32_t grp = 0; grp < g.bank_groups; ++grp) {
      const Cycle wtr = (grp == req.coord.bank_group) ? timing_.wtr_l : timing_.wtr_s;
      const std::size_t rg = static_cast<std::size_t>(req.coord.rank) * g.bank_groups + grp;
      next_rd_after_wr_group_[rg] = std::max(next_rd_after_wr_group_[rg], data_end + wtr);
    }
    next_rd_bus_ = std::max(next_rd_bus_, data_end + timing_.wtr_s);
    ++stats_.writes_done;
  } else {
    b.next_pre = std::max(b.next_pre, now + timing_.rtp);
    set_idle_eligible(key.bank, std::max(b.next_pre, now + timing_.idle_precharge));
    next_wr_bus_ = std::max(next_wr_bus_, now + timing_.rtw);
    const Cycle done = now + timing_.cl + timing_.bl;
    const Cycle total = done - req.arrival;
    const Cycle ideal = std::min(ideal_service, total);
    completions_.push_back({req.token, done, ideal, total - ideal});
    read_hist_.add(total);
    stats_.read_service_sum += static_cast<double>(ideal);
    stats_.read_queue_delay_sum += static_cast<double>(total - ideal);
    ++stats_.reads_done;
  }
}

void Controller::commit_prep(Request& req, const ScanKey& key, Cycle now) {
  // Caller established legality via prep_earliest(key) <= now (and no
  // pending refresh); this is the mutating tail only.
  if (open_row_[key.bank] != kClosedRow) {  // Wrong row (right-row banks never get here).
    precharge(key.bank, now);
    req.needed_pre = true;
    return;
  }
  Bank& b = banks_[key.bank];
  FawWindow& faw = faw_[key.rank];
  faw.acts[faw.pos] = now;
  faw.pos = (faw.pos + 1) % 4;
  // The rank's next ACT waits tRRD_S and, once four ACTs are on record, for
  // the oldest of them to leave the tFAW window (slot 0 = "never used").
  // Both are frozen until the rank's next ACT, so they fold into one bound.
  const Cycle oldest = faw.acts[faw.pos];
  next_act_rank_[key.rank] =
      std::max(now + timing_.rrd_s, oldest != 0 ? oldest + timing_.faw : 0);

  b.open = true;
  ++open_banks_;
  b.row = key.row;
  open_row_[key.bank] = key.row;
  b.next_rd = now + timing_.rcd;
  b.next_wr = now + timing_.rcd;
  b.next_pre = std::max(b.next_pre, now + timing_.ras);
  set_idle_eligible(key.bank, std::max(b.next_pre,
                                       bank_last_use_[key.bank] + timing_.idle_precharge));
  b.next_act = now + timing_.rc();
  next_act_group_[key.rg] = now + timing_.rrd_l;
  ++stats_.activates;
  checker_.on_act(req.coord, now);
  req.needed_act = true;
}

bool Controller::try_issue(Queue& queue, bool is_write, Cycle now) {
  if (queue.empty()) {
    // Mirror what a scan of the empty window would conclude, so
    // compute_wake's cached reuse sees the same bound a cold scan stores.
    queue_ready_[is_write ? 1 : 0] = kNoCycle;
    return false;
  }
  // Fast path: a prior failed scan proved nothing in this queue's window can
  // issue before queue_ready_; any invalidating event (command issued,
  // request enqueued) cleared the cache, so a live bound lets us skip the
  // rescan without changing any decision.
  const std::size_t qi = is_write ? 1 : 0;
  if (ready_cache_enabled_ && queue_ready_[qi] != 0 && now < queue_ready_[qi]) {
    return false;
  }
  COAXIAL_PROF_SCOPE(kDramTryIssue);
  const std::size_t window = std::min(queue.size(), kScanWindow);
  // One pass over the window's scan keys (bank state is frozen during the
  // scan) decides FR-FCFS: the oldest row hit whose CAS can issue now wins
  // outright; failing that, the oldest request whose preparatory ACT/PRE can
  // issue now. The scan also accumulates the queue's earliest possible next
  // command (meaningful only if nothing issues, when every candidate lies
  // in the future), so a failed scan leaves a fresh per-queue bound behind
  // and compute_wake never has to rescan the window. ACTs and PREs for new
  // rows are suppressed while a refresh is pending, and so are their wake
  // candidates.
  const bool preps = !refresh_pending_;
  Cycle q_ready = kNoCycle;
  std::size_t prep = kScanWindow;  // Oldest ready prep candidate, if any.
  for (std::size_t i = 0; i < window; ++i) {
    const ScanKey key = queue.keys[i];
    const std::uint32_t open_row = open_row_[key.bank];
    if (open_row == key.row) {
      const Cycle t = cas_earliest(key, is_write);
      if (t <= now) {
        issue_cas(queue.reqs[i], key, is_write, now);
        queue.erase(i);
        note_command();
        return true;
      }
      q_ready = std::min(q_ready, t);
    } else if (preps) {
      const Cycle t = prep_earliest(key, open_row);
      prep = (prep == kScanWindow && t <= now) ? i : prep;
      q_ready = std::min(q_ready, t);
    }
  }
  if (prep != kScanWindow) {
    commit_prep(queue.reqs[prep], queue.keys[prep], now);
    note_command();
    return true;
  }
  queue_ready_[qi] = q_ready;
  return false;
}

std::string Controller::check_mirrors() const {
  std::uint32_t open = 0;
  for (std::size_t i = 0; i < banks_.size(); ++i) {
    const std::uint32_t want = banks_[i].open ? banks_[i].row : kClosedRow;
    if (open_row_[i] != want) {
      return "open_row_[" + std::to_string(i) + "] = " + std::to_string(open_row_[i]) +
             ", bank says " + std::to_string(want);
    }
    if (banks_[i].open) ++open;
  }
  if (open != open_banks_) {
    return "open_banks_ = " + std::to_string(open_banks_) + ", banks say " +
           std::to_string(open);
  }
  if (idle_ready_ != 0) {
    const Cycle fresh = *std::min_element(idle_eligible_.begin(), idle_eligible_.end());
    if (idle_ready_ != fresh) {
      return "idle bound " + std::to_string(idle_ready_) + ", fresh minimum " +
             std::to_string(fresh);
    }
    if (fresh != kNoCycle && idle_eligible_[idle_min_bank_] != fresh) {
      return "idle bound held by bank " + std::to_string(idle_min_bank_) +
             ", whose eligibility is " + std::to_string(idle_eligible_[idle_min_bank_]);
    }
  }
  const Geometry& g = amap_.geometry();
  for (const Queue* q : {&read_q_, &write_q_}) {
    const char* name = q == &read_q_ ? "read" : "write";
    if (q->keys.size() != q->reqs.size() || q->lines.size() != q->reqs.size()) {
      return std::string(name) + " queue holds " + std::to_string(q->reqs.size()) +
             " requests, " + std::to_string(q->keys.size()) + " keys and " +
             std::to_string(q->lines.size()) + " lines";
    }
    for (std::size_t i = 0; i < q->reqs.size(); ++i) {
      const Coord& c = q->reqs[i].coord;
      const ScanKey& k = q->keys[i];
      if (k.row != c.row || k.bank != c.flat_bank_all(g) || k.rank != c.rank ||
          k.rg != c.rank * g.bank_groups + c.bank_group) {
        return std::string(name) + " queue key " + std::to_string(i) +
               " does not match its request";
      }
      const Coord m = amap_.map(q->lines[i]);
      if (m.row != c.row || m.column != c.column || m.rank != c.rank ||
          m.bank_group != c.bank_group || m.bank != c.bank) {
        return std::string(name) + " queue line " + std::to_string(i) +
               " does not map to its request";
      }
    }
  }
  return "";
}

}  // namespace coaxial::dram
