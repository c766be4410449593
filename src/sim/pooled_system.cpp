#include "sim/pooled_system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/validate.hpp"
#include "sim/shard.hpp"
#include "workload/catalog.hpp"

namespace coaxial::sim {

PooledSystem::PooledSystem(const pool::PoolConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), seed_(seed) {
  cfg_.validate();
  if (!cfg_.enabled()) {
    throw std::invalid_argument("sim::PooledSystem: n_hosts == 0");
  }
  private_lines_ = cfg_.private_pages * cfg_.page_lines;

  const obs::Scope pool = obs::Scope(&metrics_, "").sub("pool", cfg_.enabled());
  memory_ = std::make_unique<pool::PooledMemory>(cfg_, pool.sub("mem"));

  // Cross-check the declared engine lookahead against the fabric-derived
  // one (DESIGN.md §14): a declaration below the true minimum would
  // silently waste lookahead, one above it would let a message arrive
  // inside the quantum that sent it and break the byte-identical contract.
  if (cfg_.shard_min_latency_cycles != 0) {
    const Cycle derived = memory_->min_cross_shard_latency();
    const Cycle declared = cfg_.shard_min_latency_cycles;
    if (declared < derived) {
      validate::fail("sim::PooledSystem", "shard_min_latency_cycles",
                     "is below the fabric's minimum cross-shard latency — the "
                     "declaration would silently waste lookahead; declare the "
                     "derived value or 0",
                     std::to_string(declared) + " < " + std::to_string(derived));
    }
    if (declared > derived) {
      validate::fail("sim::PooledSystem", "shard_min_latency_cycles",
                     "exceeds the fabric's minimum cross-shard latency — a "
                     "quantum that long would deliver messages late and break "
                     "the deterministic-parallel contract",
                     std::to_string(declared) + " > " + std::to_string(derived));
    }
  }

  const workload::WorkloadParams& wp = workload::find_workload(cfg_.workload);
  slices_.reserve(cfg_.n_hosts);
  for (std::uint32_t h = 0; h < cfg_.n_hosts; ++h) {
    Slice s;
    s.gen = std::make_unique<workload::Generator>(wp, h, seed);
    // The share redirect draws from its own stream so turning sharing on or
    // off for one host never perturbs another host's instruction sequence.
    s.share_rng = Rng(seed ^ (0x9e3779b97f4a7c15ull * (h + 1)));
    s.credit = wp.max_ipc;
    s.slots.resize(cfg_.host_window);
    s.free_slots.reserve(cfg_.host_window);
    for (std::uint32_t i = cfg_.host_window; i > 0; --i) {
      s.free_slots.push_back(i - 1);
    }
    slices_.push_back(std::move(s));
  }
  register_metrics();
}

void PooledSystem::fetch(Slice& s, std::uint32_t h) {
  s.cur = s.gen->next();
  if (s.cur.kind != workload::InstrKind::kAlu) {
    Addr line = (s.cur.addr / kLineBytes) % private_lines_;
    bool shared = false;
    const double f = cfg_.host_share_fraction(h);
    // Hosts pinned at fraction 0 never touch the share RNG at all, so a
    // victim tenant's whole access stream is independent of its neighbours.
    if (f > 0.0 && s.share_rng.chance(f)) {
      shared = true;
      const bool hot = cfg_.shared_hot_pages != 0 &&
                       s.share_rng.chance(cfg_.shared_hot_prob);
      const Addr page = hot ? s.share_rng.next_below(cfg_.shared_hot_pages)
                            : s.share_rng.next_below(cfg_.shared_pages);
      line = pool::kPoolSharedBaseLine + page * cfg_.page_lines +
             s.share_rng.next_below(cfg_.page_lines);
    }
    s.cur_line = line;
    s.cur_shared = shared;
  }
  s.cur_valid = true;
}

void PooledSystem::step_slice(std::uint32_t h, Cycle now) {
  Slice& s = slices_[h];
  if (s.halted) return;

  // Free read slots whose completions have landed, in slot order. Nothing
  // frees before the earliest landing, so the sweep waits for it.
  if (now >= s.next_done) {
    s.next_done = kNoCycle;
    for (std::uint32_t i = 0; i < s.slots.size(); ++i) {
      Slot& sl = s.slots[i];
      if (!sl.busy || sl.done == kNoCycle) continue;
      if (sl.done <= now) {
        sl.busy = false;
        s.free_slots.push_back(i);
      } else {
        s.next_done = std::min(s.next_done, sl.done);
      }
    }
  }

  const double max_ipc = s.gen->params().max_ipc;
  if (now > s.last_step) {
    // A slice that slept in a dep or window stall spent every skipped cycle
    // in it. The credit needs no such care: a stall leaves credit >= 1, so
    // one cycle's refill or any longer gap's reaches the max_ipc cap alike.
    const Cycle skipped = now - s.last_step - 1;
    if (s.stall == Stall::kDep) s.dep_stall_cycles += skipped;
    if (s.stall == Stall::kWindow) s.window_stall_cycles += skipped;
    s.credit = std::min(
        max_ipc, s.credit + max_ipc * static_cast<double>(now - s.last_step));
    s.last_step = now;
  }

  s.stall = Stall::kNone;
  while (s.credit >= 1.0) {
    if (!s.cur_valid) fetch(s, h);
    if (s.cur.kind == workload::InstrKind::kLoad) {
      if (s.cur.depends_on_prev_load && s.last_load_valid &&
          s.slots[s.last_load_slot].busy) {
        s.stall = Stall::kDep;
        ++s.dep_stall_cycles;
        return;
      }
      if (s.free_slots.empty()) {
        s.stall = Stall::kWindow;
        ++s.window_stall_cycles;
        return;
      }
      if (!memory_->can_accept(h, s.cur_line, false, now)) {
        s.stall = Stall::kBp;
        ++s.bp_stall_cycles;
        return;
      }
      const std::uint32_t slot = s.free_slots.back();
      s.free_slots.pop_back();
      s.slots[slot] = {now, kNoCycle, true};
      memory_->access(h, s.cur_line, false, now, slot);
      s.last_load_slot = slot;
      s.last_load_valid = true;
      ++s.reads;
      if (s.cur_shared) ++s.shared_ops;
    } else if (s.cur.kind == workload::InstrKind::kStore) {
      if (!memory_->can_accept(h, s.cur_line, true, now)) {
        s.stall = Stall::kBp;
        ++s.bp_stall_cycles;
        return;
      }
      memory_->access(h, s.cur_line, true, now, 0);
      ++s.writes;
      if (s.cur_shared) ++s.shared_ops;
    }
    s.cur_valid = false;
    s.credit -= 1.0;
    ++s.retired;
    if (s.retired >= budget_) {
      s.halted = true;
      s.halt_at = now;
      return;
    }
  }
}

void PooledSystem::drain_completions(std::uint32_t h) {
  Slice& s = slices_[h];
  auto& done = memory_->completions(h);
  for (const pool::HostCompletion& c : done) {
    Slot& sl = s.slots[static_cast<std::uint32_t>(c.token)];
    sl.done = c.done;
    s.next_done = std::min(s.next_done, c.done);
    if (c.poisoned) ++s.poisons;
    if (window_open_ && sl.start >= window_start_) {
      s.lat.add(c.done - sl.start);
    }
  }
  done.clear();
}

bool PooledSystem::track_window(std::uint64_t warmup_instr, Cycle at) {
  if (!window_open_) {
    bool all_warm = true;
    for (const Slice& s : slices_) {
      all_warm = all_warm && s.retired >= warmup_instr;
    }
    if (all_warm) {
      window_open_ = true;
      window_start_ = at;
      for (Slice& s : slices_) s.retired_base = s.retired;
    }
  }
  if (window_open_ && !window_closed_) {
    bool all_done = true;
    for (const Slice& s : slices_) all_done = all_done && s.halted;
    if (all_done) {
      window_closed_ = true;
      // Exact: the cycle the last slice crossed its budget. A degenerate
      // warmup==budget engine run can halt before the barrier that opens
      // the window.
      for (const Slice& s : slices_) {
        window_end_ = std::max(window_end_, s.halt_at);
      }
      window_end_ = std::max(window_end_, window_start_);
    }
  }
  return window_closed_;
}

// Sharded quantum engine (DESIGN.md §14). Shard 0 is the pool side —
// the heaviest partition, owned by the coordinator so its pump overlaps
// the workers' host pumps; shards 1..N are the host slices. Inside a
// quantum [t, t+Q) every shard advances its own cycles (a host steps its
// slice every cycle while it retires or is backpressured and sleeps it
// through dep and window stalls; both sides event-skip when idle, clamped
// to the quantum). All cross-shard effects ride mailboxes drained
// at the barrier, and every barrier decision — window open/close,
// termination, the next quantum to simulate — is taken by the coordinator
// alone from state that is a pure function of the simulation, never of
// the worker count. Idle gaps are skipped in whole quanta (jumps round
// down to the barrier grid) so the event-driven and tick-every-cycle
// schedules visit the same barriers and agree byte-for-byte.
PooledStats PooledSystem::run(std::uint64_t warmup_instr,
                              std::uint64_t measure_instr) {
  budget_ = warmup_instr + measure_instr;
  memory_->set_force_tick(tick_every_cycle_);
  const bool force = tick_every_cycle_;
  const Cycle q = memory_->min_cross_shard_latency();
  const std::size_t n_shards = static_cast<std::size_t>(cfg_.n_hosts) + 1;
  // Switched pools open no shard phase: bench/perf's layers.cpp still files
  // them under the per-cycle switched pump's flat profile (DESIGN.md §14).
  const bool shard_phases = cfg_.fabric_kind == fabric::TopologyKind::kDirect;
  shard::WorkerTeam team(workers_, n_shards, shard_phases);
  effective_workers_ = static_cast<std::uint32_t>(team.workers());

  // Next cycle each shard needs to run (kNoCycle = asleep until mail).
  std::vector<Cycle> shard_next(n_shards, 0);
  Cycle t = 0;
  while (true) {
    const Cycle t_end = t + q;
    const auto pump = [&](std::size_t sh) {
      if (sh == 0) {
        Cycle c = force ? t : std::max(t, shard_next[0]);
        while (c < t_end) {
          const Cycle w = memory_->pool_tick(c);
          if (force) {
            ++c;
            continue;
          }
          if (w == kNoCycle) {
            c = kNoCycle;
            break;
          }
          c = std::max(w, c + 1);
        }
        shard_next[0] = c;
        return;
      }
      const std::uint32_t h = static_cast<std::uint32_t>(sh - 1);
      const Slice& s = slices_[h];
      // Completions delivered at the barrier must reach the slice's slot
      // table even when this shard is otherwise asleep.
      drain_completions(h);
      Cycle c = force ? t : std::max(t, shard_next[sh]);
      while (c < t_end) {
        drain_completions(h);
        if (force || !s.asleep(c)) step_slice(h, c);
        Cycle w = memory_->host_tick(h, c);
        if (force) {
          ++c;
          continue;
        }
        // A completion the tick just produced is drained next cycle, as
        // the lockstep pump does (it may end the slice's sleep);
        // quiescence reads the completion queue.
        if (!memory_->completions(h).empty()) w = c + 1;
        w = std::min(w, s.wake_after(c));
        if (w == kNoCycle) {
          c = kNoCycle;
          break;
        }
        c = std::max(w, c + 1);
      }
      shard_next[sh] = c;
    };
    team.round(pump);

    // Barrier: every shard is paused. Mail exchange, global predicates and
    // the jump decision are coordinator-only and see a consistent system.
    Cycle effect;
    {
      COAXIAL_PROF_SCOPE(kShardDrain, shard_phases);
      effect = memory_->exchange_shard_mail(t_end);
    }
    // The window opens on the barrier grid; it closes at the exact cycle
    // the last slice halted.
    if (track_window(warmup_instr, t_end) && memory_->quiescent()) break;
    // Jump: skip whole quanta nobody needs, rounding down to the barrier
    // grid so both scheduler modes visit identical barrier sequences.
    // Completions still queued for a slice are drained at the top of the
    // next quantum, as the lockstep pump does.
    for (std::uint32_t h = 0; h < cfg_.n_hosts; ++h) {
      if (!memory_->completions(h).empty()) {
        shard_next[h + 1] = std::min(shard_next[h + 1], t_end);
      }
    }
    Cycle global_next = effect;
    for (const Cycle c : shard_next) global_next = std::min(global_next, c);
    if (global_next == kNoCycle) throw_lost_wake(t_end);
    if (effect != kNoCycle) {
      for (Cycle& c : shard_next) c = std::min(c, effect);
    }
    t = force ? t_end : std::max(t_end, global_next / q * q);
  }
  worker_prof_totals_ = team.shutdown();
  return assemble_stats(t + q);  // The run ends at its last barrier.
}

void PooledSystem::throw_lost_wake(Cycle now) const {
  // Reachable with live slices: a slice asleep in a dep or window stall arms
  // nothing until a completion lands. Name each live slice and what it
  // awaits, so a completion the pool never delivers points at its host.
  // Stepping on blindly would spin forever, or hide a wake bound that is
  // not conservative.
  static constexpr const char* kStallNames[] = {"running", "dep-stalled",
                                                "window-stalled", "bp-stalled"};
  std::string live;
  for (std::uint32_t h = 0; h < cfg_.n_hosts; ++h) {
    const Slice& s = slices_[h];
    if (s.halted) continue;
    // A dep stall awaits its producer load's slot, a window stall any slot.
    const Cycle landing =
        s.stall == Stall::kDep ? s.slots[s.last_load_slot].done : s.next_done;
    live += "; host " + std::to_string(h) + " " +
            kStallNames[static_cast<int>(s.stall)] + ", " +
            (landing == kNoCycle ? std::string("completion pending")
                                 : "landing at cycle " + std::to_string(landing));
  }
  throw std::logic_error("sim::PooledSystem: lost wake-up at cycle " +
                         std::to_string(now) +
                         ": nothing is armed but the pool still holds work (" +
                         memory_->pending_work() + ")" + live);
}

PooledStats PooledSystem::assemble_stats(Cycle total) const {
  PooledStats st;
  st.window_cycles = window_end_ - window_start_;
  st.total_cycles = total;
  FixedHistogram merged;
  double ipc_sum = 0;
  for (const Slice& s : slices_) {
    const std::uint64_t instr = s.retired - s.retired_base;
    st.instructions += instr;
    const double ipc = st.window_cycles != 0
                           ? static_cast<double>(instr) /
                                 static_cast<double>(st.window_cycles)
                           : 0.0;
    st.host_ipc.push_back(ipc);
    ipc_sum += ipc;
    merged.merge(s.lat);
  }
  st.ipc_mean = ipc_sum / static_cast<double>(cfg_.n_hosts);
  if (merged.count() != 0) {
    st.read_p50_ns = cycles_to_ns(merged.percentile(0.50));
    st.read_p99_ns = cycles_to_ns(merged.percentile(0.99));
  }
  st.pool = memory_->counters();
  return st;
}

void PooledSystem::register_metrics() {
  const obs::Scope pool = obs::Scope(&metrics_, "").sub("pool", cfg_.enabled());
  const pool::PooledMemory* mem = memory_.get();
  const std::uint32_t s_devs = cfg_.shared_devices;
  const std::uint32_t n_hosts = cfg_.n_hosts;

  pool.expose_counter("hosts", [n_hosts] { return std::uint64_t{n_hosts}; });

  pool.expose_counter("dir/occupancy", [mem, s_devs] {
    std::uint64_t v = 0;
    for (std::uint32_t d = 0; d < s_devs; ++d) v += mem->directory(d).occupancy();
    return v;
  });
  pool.expose_counter("dir/inserts", [mem, s_devs] {
    std::uint64_t v = 0;
    for (std::uint32_t d = 0; d < s_devs; ++d) v += mem->directory(d).inserts();
    return v;
  });
  pool.expose_counter("dir/evictions", [mem, s_devs] {
    std::uint64_t v = 0;
    for (std::uint32_t d = 0; d < s_devs; ++d) v += mem->directory(d).evictions();
    return v;
  });
  for (std::uint32_t d = 0; d < s_devs; ++d) {
    const obs::Scope ds = pool.sub("dev/" + obs::idx(d));
    ds.expose_counter("occupancy",
                      [mem, d] { return std::uint64_t{mem->directory(d).occupancy()}; });
    ds.expose_counter("inserts", [mem, d] { return mem->directory(d).inserts(); });
    ds.expose_counter("evictions",
                      [mem, d] { return mem->directory(d).evictions(); });
  }

  // Counter structs are assembled by value from their per-shard halves, so
  // the probes call the accessor per sample instead of caching a pointer.
  const obs::Scope coh = pool.sub("coh");
  coh.expose_counter("txns", [mem] { return mem->counters().txns; });
  coh.expose_counter("invals_sent", [mem] { return mem->counters().invals_sent; });
  coh.expose_counter("invals_acked",
                     [mem] { return mem->counters().invals_acked; });
  coh.expose_counter("recalls_dirty",
                     [mem] { return mem->counters().recalls_dirty; });
  coh.expose_counter("recall_writebacks",
                     [mem] { return mem->counters().recall_writebacks; });
  coh.expose_counter("upgrades_silent",
                     [mem] { return mem->counters().upgrades_silent; });
  coh.expose_counter("pingpong",
                     [mem] { return mem->counters().pingpong_transitions; });

  const obs::Scope adm = pool.sub("admitted");
  adm.expose_counter("shared_reads",
                     [mem] { return mem->counters().shared_reads; });
  adm.expose_counter("shared_writes",
                     [mem] { return mem->counters().shared_writes; });
  adm.expose_counter("private_reads",
                     [mem] { return mem->counters().private_reads; });
  adm.expose_counter("private_writes",
                     [mem] { return mem->counters().private_writes; });

  for (std::uint32_t h = 0; h < n_hosts; ++h) {
    const obs::Scope hs = pool.sub("host/" + obs::idx(h));
    const Slice* s = &slices_[h];
    hs.expose_counter("instructions", [s] { return s->retired; });
    hs.expose_counter("reads", [s] { return s->reads; });
    hs.expose_counter("writes", [s] { return s->writes; });
    hs.expose_counter("shared", [s] { return s->shared_ops; });
    hs.expose_counter("bp_stall_cycles", [s] { return s->bp_stall_cycles; });
    hs.expose_counter("dep_stall_cycles", [s] { return s->dep_stall_cycles; });
    hs.expose_counter("window_stall_cycles",
                      [s] { return s->window_stall_cycles; });
    hs.expose_counter("invals_received",
                      [mem, h] { return mem->host_counters(h).invals_received; });
    hs.expose_counter("acks_sent",
                      [mem, h] { return mem->host_counters(h).acks_sent; });
    hs.expose_fixed_histogram("lat", s->lat);
  }

  // RAS observability is opt-in with the fault plan, like sim::System's
  // ras/* subtree: fault-free pooled runs keep their metric-tree shape.
  const obs::Scope rs =
      obs::Scope(&metrics_, "").sub("ras", cfg_.fault_plan.enabled());
  rs.expose_counter("crc_errors",
                    [mem] { return mem->ras_counters().crc_errors; });
  rs.expose_counter("replays", [mem] { return mem->ras_counters().replays; });
  rs.expose_counter("poisons_injected",
                    [mem] { return mem->ras_counters().poisons_injected; });
  rs.expose_counter("degraded_cycles",
                    [mem] { return mem->ras_counters().degraded_cycles; });
  const std::vector<Slice>* sl = &slices_;
  rs.expose_counter("poisons_consumed", [sl] {
    std::uint64_t total = 0;
    for (const Slice& s : *sl) total += s.poisons;
    return total;
  });
  // Device-failure lifecycle (DESIGN.md §13), pool-relevant fields only.
  const obs::Scope av = rs.sub("avail", cfg_.fault_plan.device_failure());
  av.expose_counter("devices_offlined",
                    [mem] { return mem->avail_counters().devices_offlined; });
  av.expose_counter("bounced_reads",
                    [mem] { return mem->avail_counters().bounced_reads; });
  av.expose_counter("lost_writes",
                    [mem] { return mem->avail_counters().lost_writes; });
  av.expose_counter("lost_dirty_pages",
                    [mem] { return mem->avail_counters().lost_dirty_pages; });
  av.expose_counter("recovery_invals",
                    [mem] { return mem->avail_counters().recovery_invals; });
  av.expose_counter("refused_txns",
                    [mem] { return mem->avail_counters().refused_txns; });
}

}  // namespace coaxial::sim
