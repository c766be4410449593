#include "placement/tiered_memory.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace coaxial::placement {

TieredMemory::TieredMemory(const TierConfig& cfg, std::unique_ptr<mem::MemorySystem> fast,
                           std::unique_ptr<mem::MemorySystem> capacity, obs::Scope scope,
                           const ras::FaultPlan& plan)
    : cfg_(cfg),
      amap_(AddressMap::tiered(cfg)),  // Validates cfg.
      fast_(std::move(fast)),
      cap_(std::move(capacity)),
      policy_(make_policy(cfg.policy)),
      next_barrier_(cfg.epoch_cycles) {
  out_.reserve(64);
  if (plan.device_failure()) {
    evac_on_ = true;
    fail_dev_ = plan.fail_device;
    evac_budget_ = plan.evac_pages_per_epoch;
    // This layer owns the evacuation: emergency migrations preempt the
    // steady-state policy, and the capacity tier parks in kEvacuating on a
    // monitor trip until offline_device() below.
    policy_ = std::make_unique<EvacuationPolicy>(std::move(policy_));
    if (plan.fail_mode == ras::FailureMode::kFailing) cap_->set_offline_hold(true);
    // Per-page homing must be well-defined: every line of a tier page has
    // to land on the same capacity device (page-granular interleave with
    // fabric page_lines a multiple of the tier page size).
    for (Addr page = 0; page < 4; ++page) {
      const std::uint32_t dev = cap_->device_of_line(page * cfg_.page_lines);
      for (std::uint32_t l = 1; l < cfg_.page_lines; ++l) {
        if (cap_->device_of_line(page * cfg_.page_lines + l) != dev) {
          throw std::invalid_argument(
              "placement::TieredMemory: device-failure evacuation requires "
              "page-granular capacity interleave (fabric page_lines must be "
              "a multiple of the tier page size)");
        }
      }
    }
  }
  if (scope.valid()) mem::register_aggregate_probes(scope, *this);
}

bool TieredMemory::can_accept(Addr line, bool is_write, Cycle now) const {
  if (evac_on_) {
    // Retired pages and pages stranded on a dead device are sinks, never
    // backpressure: access() converts the touch into an exactly-once poison
    // completion, so callers parked on can_accept() cannot wedge.
    const Addr page = amap_.page_of(line);
    if (retired_.count(page) != 0) return true;
    if (is_write && amap_.migrating(page)) return false;
    const Translation td = amap_.translate(line);
    if (td.tier == 1 &&
        cap_->failure_status().phase >= ras::FailureStatus::Phase::kDraining &&
        page_device(page) == fail_dev_) {
      return true;
    }
    return td.tier == 0 ? fast_->can_accept(td.local_line, is_write, now)
                        : cap_->can_accept(td.local_line, is_write, now);
  }
  // Shootdown: writes to a page mid-copy are refused so the copied image
  // cannot go stale; the caller parks and retries them every cycle, and the
  // migrating mark clears at the install barrier, so progress is bounded.
  if (is_write && amap_.migrating(amap_.page_of(line))) return false;
  const Translation t = amap_.translate(line);
  return t.tier == 0 ? fast_->can_accept(t.local_line, is_write, now)
                     : cap_->can_accept(t.local_line, is_write, now);
}

void TieredMemory::access(Addr line, bool is_write, Cycle now, std::uint64_t token) {
  if (evac_on_) {
    using Phase = ras::FailureStatus::Phase;
    const Addr page = amap_.page_of(line);
    const bool was_retired = retired_.count(page) != 0;
    if (!was_retired) {
      const Translation td = amap_.translate(line);
      if (td.tier == 1 && page_device(page) == fail_dev_) {
        const Phase phase = cap_->failure_status().phase;
        if (phase >= Phase::kDraining) {
          // First touch of a page stranded on the offlined device: its only
          // copy is gone, so it enters the retirement table and this touch
          // (and every later one) becomes a poison MCE instead of a hang.
          retire_page(page);
        } else if (phase == Phase::kFailing) {
          // Still serving, monitor not yet tripped: remember the page so
          // the evacuation walks it off the device at an upcoming barrier.
          // Once the trip fires the work-list is closed — an open-ended
          // workload would otherwise refill it forever and the offline
          // handshake could never complete; pages first touched after the
          // trip take the retire-on-death path instead.
          evac_pending_.insert(page);
        }
      }
    }
    if (was_retired || retired_.count(page) != 0) {
      ++avail_.retired_touches;
      if (!is_write) {
        mem::MemCompletion mc;
        mc.token = token;
        mc.done = now + 1;
        mc.poisoned = true;
        out_.push_back(mc);
      }
      return;  // Writes to retired pages are dropped (data already lost).
    }
  }
  const Translation t = amap_.translate(line);
  heat_.note(amap_.page_of(line));
  if (t.tier == 0) {
    ++ctr_.fast_accesses;
    ++epoch_fast_;
    fast_->access(t.local_line, is_write, now, token);
  } else {
    ++ctr_.capacity_accesses;
    ++epoch_cap_;
    cap_->access(t.local_line, is_write, now, token);
  }
}

std::uint32_t TieredMemory::port_of(Addr line) const {
  const Translation t = amap_.translate(line);
  return t.tier == 0 ? fast_->port_of(t.local_line)
                     : fast_->ports() + cap_->port_of(t.local_line);
}

Cycle TieredMemory::tick(Cycle now) {
  while (now >= next_barrier_) process_barrier();
  pump_migrations(now);
  Cycle wake = std::min(fast_->tick(now), cap_->tick(now));
  drain_inner(fast_->completions());
  drain_inner(cap_->completions());
  wake = std::min(wake, next_barrier_);
  // Active copy jobs make per-cycle progress (read credits free, completed
  // reads unlock writes), so poll every cycle while any exist.
  if (!active_.empty() || !backlog_.empty()) wake = std::min(wake, now + 1);
  return std::max(wake, now + 1);
}

void TieredMemory::drain_inner(std::vector<mem::MemCompletion>& in) {
  for (const mem::MemCompletion& c : in) {
    if (c.token & kMigFlag) {
      MigrationJob& job = jobs_[static_cast<std::uint32_t>((c.token >> 32) & 0x7fffffffu)];
      ++job.reads_done;
      if (c.poisoned && evac_on_) {
        // A corrupt copy read poisons the whole page image: abort the job
        // once its outstanding reads drain (pump_migrations cancels it).
        // Only armed alongside a failure episode so legacy fault plans keep
        // their exact pre-episode behaviour.
        job.aborted = true;
      } else if (!job.aborted) {
        job.ready_writes.push_back(static_cast<std::uint32_t>(c.token & 0xffffffffu));
      }
    } else {
      out_.push_back(c);
    }
  }
  in.clear();
}

void TieredMemory::pump_migrations(Cycle now) {
  while (active_.size() < cfg_.max_concurrent_migrations && !backlog_.empty()) {
    active_.push_back(backlog_.front());
    backlog_.pop_front();
  }
  for (std::size_t i = 0; i < active_.size();) {
    const std::uint32_t id = active_[i];
    MigrationJob& job = jobs_[id];
    if (job.aborted) {
      if (job.reads_done < job.reads_issued) {
        ++i;  // Outstanding copy reads must land before the cancel.
        continue;
      }
      // Cancel: undo the reservation and unblock demand writes. If the
      // source device is already refusing (drained or dead) the page's only
      // good copy is unreachable — retire it; a merely-failing source keeps
      // the page in evac_pending_ so a later epoch retries the copy.
      if (job.promote) amap_.release_frame(job.frame);
      amap_.set_migrating(job.page, false);
      ++avail_.evac_aborts;
      if (job.promote && page_device(job.page) == fail_dev_ &&
          cap_->failure_status().phase >= ras::FailureStatus::Phase::kDraining) {
        retire_page(job.page);
      }
      jobs_.release(id);
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    mem::MemorySystem& src = job.promote ? *cap_ : *fast_;
    mem::MemorySystem& dst = job.promote ? *fast_ : *cap_;
    while (job.reads_issued < cfg_.page_lines) {
      const Addr src_line = src_line_of(job, job.reads_issued);
      if (!src.can_accept(src_line, false, now)) break;
      src.access(src_line, false, now,
                 kMigFlag | (static_cast<std::uint64_t>(id) << 32) | job.reads_issued);
      ++job.reads_issued;
      ++ctr_.migration_reads;
      ctr_.migration_bytes += kLineBytes;
    }
    while (job.write_cursor < job.ready_writes.size()) {
      const Addr dst_line = dst_line_of(job, job.ready_writes[job.write_cursor]);
      if (!dst.can_accept(dst_line, true, now)) break;
      dst.access(dst_line, true, now, 0);  // Posted, like demand writebacks.
      ++job.write_cursor;
      ++ctr_.migration_writes;
      ctr_.migration_bytes += kLineBytes;
    }
    if (job.write_cursor == cfg_.page_lines) {
      completed_.push_back(id);
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void TieredMemory::process_barrier() {
  using Phase = ras::FailureStatus::Phase;
  ++epoch_index_;
  ++ctr_.epochs;
  const Phase phase = evac_on_ ? cap_->failure_status().phase : Phase::kNone;

  // Publish finished copies first: their pages leave the migrating set, so
  // this epoch's plan sees the post-install remap table.
  for (const std::uint32_t id : completed_) {
    MigrationJob& job = jobs_[id];
    if (evac_on_ && job.promote && retired_.count(job.page) != 0) {
      // Copied cleanly, but a demand touch retired the page while the
      // install waited for the barrier: retirement stays authoritative, so
      // drop the copy instead of resurrecting the page.
      amap_.release_frame(job.frame);
      amap_.set_migrating(job.page, false);
      ++avail_.evac_aborts;
      jobs_.release(id);
      continue;
    }
    if (job.promote) {
      amap_.install_promotion(job.page, job.frame, epoch_index_);
      ++ctr_.promotions;
    } else {
      amap_.install_demotion(job.page);
      ++ctr_.demotions;
    }
    ++ctr_.installs;
    if (job.evac) {
      // One page made it off the failing device with a live copy.
      ++avail_.evac_pages_out;
      ++avail_.evac_pages_in;
      evac_pending_.erase(job.page);
    }
    amap_.set_migrating(job.page, false);
    jobs_.release(id);
  }
  completed_.clear();

  PolicyInput in;
  in.epoch = epoch_index_;
  for (const PageHeat::Entry& e : heat_.entries()) {
    if (amap_.migrating(e.page)) continue;
    if (amap_.remapped(e.page)) {
      amap_.touch_resident(e.page, epoch_index_, e.count);
      continue;
    }
    if (amap_.native_fast(e.page)) continue;
    in.candidates.push_back({e.page, e.count});
  }
  std::sort(in.candidates.begin(), in.candidates.end(),
            [](const PageCount& a, const PageCount& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.page < b.page;
            });
  const std::vector<AddressMap::FrameMeta>& frames = amap_.frames();
  for (std::uint32_t f = amap_.native_frames(); f < frames.size(); ++f) {
    const AddressMap::FrameMeta& meta = frames[f];
    // Only published residents: frames reserved for in-flight promotions
    // are in_use but unmapped, and migrating (demoting) pages are spoken for.
    if (!meta.in_use || !amap_.remapped(meta.page)) continue;
    if (amap_.frame_of(meta.page) != f || amap_.migrating(meta.page)) continue;
    // During a failure episode, pages homed on the failing device are not
    // demotion candidates (their fast copy is the only good one), so keep
    // them out of the victim pool rather than waste demote budget on picks
    // the barrier would refuse below.
    if (evac_on_ && phase != Phase::kNone && page_device(meta.page) == fail_dev_) {
      continue;
    }
    in.residents.push_back({meta.page, f, heat_.count_of(meta.page), meta.last_hot_epoch});
  }
  in.free_frames = amap_.free_frames();
  in.fast_accesses = epoch_fast_;
  in.total_accesses = epoch_fast_ + epoch_cap_;

  if (phase == Phase::kEvacuating) {
    // Emergency work-list: every touched fail-device page still homed there,
    // page-ascending for a deterministic drain order.
    std::vector<Addr> doomed(evac_pending_.begin(), evac_pending_.end());
    std::sort(doomed.begin(), doomed.end());
    for (const Addr page : doomed) {
      if (amap_.remapped(page) || amap_.native_fast(page) || amap_.migrating(page)) {
        continue;
      }
      if (retired_.count(page) != 0) continue;
      in.evacuate.push_back({page, heat_.count_of(page)});
    }
    in.evac_budget = evac_budget_;
  }

  const PolicyActions acts = policy_->plan(in, cfg_);
  // max_migrations_per_epoch caps *outstanding* copy work, not just this
  // epoch's plan: jobs the pump hasn't finished still hold their pages in
  // the migrating set, and planning past them would grow the backlog without
  // bound — every queued page invisible to the next epoch's plan.
  std::uint32_t headroom = cfg_.max_migrations_per_epoch;
  const std::size_t inflight = active_.size() + backlog_.size();
  headroom = inflight >= headroom ? 0u
                                  : headroom - static_cast<std::uint32_t>(inflight);
  std::uint32_t started = 0;
  for (const Addr page : acts.promote) {
    if (headroom == 0) break;
    if (amap_.remapped(page) || amap_.native_fast(page) || amap_.migrating(page)) continue;
    if (amap_.free_frames() == 0) break;
    const bool evac = phase == Phase::kEvacuating && evac_pending_.count(page) != 0;
    start_job(page, amap_.alloc_frame(), /*promote=*/true, evac);
    if (evac) ++avail_.evac_jobs;
    --headroom;
    ++started;
  }
  for (const Addr page : acts.demote) {
    if (headroom == 0) break;
    if (!amap_.remapped(page) || amap_.migrating(page)) continue;
    // Never demote back onto a failing/dead device: the copy would be lost
    // (or immediately need re-evacuation).
    if (evac_on_ && phase != Phase::kNone && page_device(page) == fail_dev_) continue;
    start_job(page, amap_.frame_of(page), /*promote=*/false);
    --headroom;
    ++started;
  }

  if (phase == Phase::kEvacuating && !in.evacuate.empty() && started == 0 &&
      active_.empty() && backlog_.empty()) {
    // Wedged: nothing in flight, and this barrier could not plan a single
    // copy or victim demotion (no free frames and no demotable resident —
    // e.g. every fast frame already holds an evacuated page). The rest of
    // the work-list is unevacuable; retire it (copyless out, conservation
    // intact) so the offline handshake below can complete.
    for (const PageCount& p : in.evacuate) retire_page(p.page);
    in.evacuate.clear();
  }

  // Evacuation complete? Nothing left on the work-list and no copy still in
  // flight from the failing device: hand the device back so it can drain to
  // kDead (the offline handshake, DESIGN.md §13).
  if (phase == Phase::kEvacuating && in.evacuate.empty() && !evac_jobs_live()) {
    cap_->offline_device(fail_dev_);
  }

  heat_.clear();
  epoch_fast_ = 0;
  epoch_cap_ = 0;
  next_barrier_ += cfg_.epoch_cycles;
}

bool TieredMemory::evac_jobs_live() const {
  const auto from_fail_dev = [&](std::uint32_t id) {
    const MigrationJob& j = jobs_[id];
    return j.promote && page_device(j.page) == fail_dev_;
  };
  for (const std::uint32_t id : active_) {
    if (from_fail_dev(id)) return true;
  }
  for (const std::uint32_t id : backlog_) {
    if (from_fail_dev(id)) return true;
  }
  for (const std::uint32_t id : completed_) {
    if (from_fail_dev(id)) return true;
  }
  return false;
}

void TieredMemory::retire_page(Addr page) {
  if (!retired_.insert(page).second) return;
  ++avail_.pages_retired;
  ++avail_.evac_pages_out;  // The page left the device — copyless.
  evac_pending_.erase(page);
}

void TieredMemory::start_job(Addr page, std::uint32_t frame, bool promote, bool evac) {
  const std::uint32_t id = jobs_.acquire();
  MigrationJob& job = jobs_[id];
  job.page = page;
  job.frame = frame;
  job.promote = promote;
  job.evac = evac;
  job.ready_writes.reserve(cfg_.page_lines);
  amap_.set_migrating(page, true);
  backlog_.push_back(id);
  ++ctr_.jobs_started;
}

mem::MemorySnapshot TieredMemory::snapshot() const {
  const mem::MemorySnapshot a = fast_->snapshot();
  const mem::MemorySnapshot b = cap_->snapshot();
  mem::MemorySnapshot s;
  s.reads = a.reads + b.reads;
  s.writes = a.writes + b.writes;
  s.dram_service_sum = a.dram_service_sum + b.dram_service_sum;
  s.dram_queue_sum = a.dram_queue_sum + b.dram_queue_sum;
  s.cxl_interface_sum = a.cxl_interface_sum + b.cxl_interface_sum;
  s.cxl_queue_sum = a.cxl_queue_sum + b.cxl_queue_sum;
  s.data_bus_busy = a.data_bus_busy + b.data_bus_busy;
  s.subchannels = a.subchannels + b.subchannels;
  s.peak_gbps = peak_gbps();
  s.row_hit_rate = aggregate_dram_stats().row_hit_rate();
  return s;
}

void TieredMemory::reset_stats() {
  // Inner-tier DRAM/link accumulators reset with the measurement window;
  // tier counters stay lifetime totals so the conservation invariant
  // (promotions - demotions == live remap occupancy) holds at any sample.
  fast_->reset_stats();
  cap_->reset_stats();
}

dram::ControllerStats TieredMemory::aggregate_dram_stats() const {
  dram::ControllerStats agg = fast_->aggregate_dram_stats();
  mem::accumulate(agg, cap_->aggregate_dram_stats());
  return agg;
}

ras::RasCounters TieredMemory::ras_counters() const {
  ras::RasCounters c = fast_->ras_counters();
  c += cap_->ras_counters();
  return c;
}

TierCounters TieredMemory::tier_counters() const {
  TierCounters c = ctr_;
  c.remap_occupancy = amap_.remap_occupancy();
  return c;
}

ras::AvailCounters TieredMemory::avail_counters() const {
  // Device-side episode events (health samples, bounces, lost writes) come
  // from the capacity tier; evacuation/retirement events live here.
  ras::AvailCounters c = fast_->avail_counters();
  c += cap_->avail_counters();
  c += avail_;
  return c;
}

}  // namespace coaxial::placement
