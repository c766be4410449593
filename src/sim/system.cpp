#include "sim/system.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace coaxial::sim {

namespace {

mem::MemorySnapshot snapshot_delta(const mem::MemorySnapshot& now,
                                   const mem::MemorySnapshot& base) {
  mem::MemorySnapshot d = now;
  d.reads -= base.reads;
  d.writes -= base.writes;
  d.dram_service_sum -= base.dram_service_sum;
  d.dram_queue_sum -= base.dram_queue_sum;
  d.cxl_interface_sum -= base.cxl_interface_sum;
  d.cxl_queue_sum -= base.cxl_queue_sum;
  d.data_bus_busy -= base.data_bus_busy;
  return d;
}

calm::CalmStats calm_delta(const calm::CalmStats& now, const calm::CalmStats& base) {
  calm::CalmStats d;
  d.decisions = now.decisions - base.decisions;
  d.probes = now.probes - base.probes;
  d.true_positives = now.true_positives - base.true_positives;
  d.false_positives = now.false_positives - base.false_positives;
  d.true_negatives = now.true_negatives - base.true_negatives;
  d.false_negatives = now.false_negatives - base.false_negatives;
  return d;
}

constexpr Cycle kRetryInterval = 2;  ///< L2-MSHR-full replay spacing.

}  // namespace

void System::build_shared_structures() {
  const sys::MicroarchConfig& u = cfg_.uarch;
  cfg_.fault_plan.validate();  // Fail fast even for topologies that ignore it.
  cfg_.tiering.validate();
  ras_enabled_ = cfg_.fault_plan.enabled();
  const obs::Scope root(&metrics_, "");
  memory_ = cfg_.make_memory(root.sub("mem"));
  calm_ = std::make_unique<calm::Decider>(
      cfg_.calm, bytes_per_cycle(memory_->peak_gbps()), u.cores, seed_ ^ 0xca1f,
      root.sub("calm"));
  for (std::uint32_t c = 0; c < u.cores; ++c) {
    l1_.push_back(std::make_unique<cache::Cache>(u.l1_kb * 1024ull, u.l1_ways,
                                                 cache::ReplacementPolicy::kLru,
                                                 root.sub("cache/l1/" + obs::idx(c))));
    l1_mshr_.push_back(std::make_unique<cache::Mshr>(u.l1_mshrs));
    l2_.push_back(std::make_unique<cache::Cache>(u.l2_kb * 1024ull, u.l2_ways,
                                                 cache::ReplacementPolicy::kLru,
                                                 root.sub("cache/l2/" + obs::idx(c))));
    l2_mshr_.push_back(std::make_unique<cache::Mshr>(u.l2_mshrs));
    llc_.push_back(std::make_unique<cache::Cache>(
        static_cast<std::size_t>(u.llc_mb_per_core) << 20, u.llc_ways,
        u.llc_replacement, root.sub("cache/llc/" + obs::idx(c))));
    llc_mshr_.push_back(std::make_unique<cache::Mshr>(u.llc_mshrs_per_slice));
  }
  // Measurement-window accumulators live in the registry so RunStats is a
  // view over it rather than a parallel set of hand-summed fields.
  const obs::Scope run = root.sub("run");
  ops_finished_ = run.counter("l2_miss/ops");
  lat_total_sum_ = run.gauge("l2_miss/lat_total_sum");
  lat_onchip_sum_ = run.gauge("l2_miss/lat_onchip_sum");
  lat_pending_sum_ = run.gauge("l2_miss/lat_pending_sum");
  lat_dram_service_sum_ = run.gauge("l2_miss/lat_dram_service_sum");
  lat_dram_queue_sum_ = run.gauge("l2_miss/lat_dram_queue_sum");
  lat_cxl_interface_sum_ = run.gauge("l2_miss/lat_cxl_interface_sum");
  lat_cxl_queue_sum_ = run.gauge("l2_miss/lat_cxl_queue_sum");
  llc_hits_ = run.counter("llc/hits");
  llc_misses_ = run.counter("llc/misses");
  l2_miss_hist_ = run.histogram("l2_miss/latency_cycles");
  // RAS observability is opt-in with the fault plan: the feature-gated
  // Scope is inert for fault-free runs, so the metrics-tree shape (and the
  // golden baseline) is unchanged while registration stays unconditional.
  const obs::Scope rs = root.sub("ras", ras_enabled_);
  rs.expose_counter("crc_errors",
                    [this] { return memory_->ras_counters().crc_errors; });
  rs.expose_counter("replays", [this] { return memory_->ras_counters().replays; });
  rs.expose_counter("poisons_injected",
                    [this] { return memory_->ras_counters().poisons_injected; });
  rs.expose_counter("degraded_cycles",
                    [this] { return memory_->ras_counters().degraded_cycles; });
  rs.expose_counter("timeouts", [this] { return memory_->ras_counters().timeouts; });
  rs.expose_counter("backoff_retries",
                    [this] { return memory_->ras_counters().backoff_retries; });
  rs.expose_counter("dup_drops", [this] { return memory_->ras_counters().dup_drops; });
  rs.expose_counter("poisoned_writes",
                    [this] { return memory_->ras_counters().poisoned_writes; });
  // Machine checks fired by cores consuming poisoned data (measurement
  // window; reset with the other per-window core counters).
  rs.expose_counter("poisons_consumed", [this] {
    std::uint64_t total = 0;
    for (const auto& core : cores_) total += core->machine_checks();
    return total;
  });
  for (std::uint32_t c = 0; c < u.cores; ++c) {
    rs.expose_counter("core/" + obs::idx(c) + "/machine_checks",
                      [this, c] { return cores_[c]->machine_checks(); });
  }
  // Device-failure lifecycle (DESIGN.md §13): gated one level deeper on a
  // planned episode, so plain CRC/stall plans keep their metric-tree shape.
  const obs::Scope av = rs.sub("avail", cfg_.fault_plan.device_failure());
  av.expose_counter("fail_errors",
                    [this] { return memory_->avail_counters().fail_errors; });
  av.expose_counter("health_samples",
                    [this] { return memory_->avail_counters().health_samples; });
  av.expose_counter("monitor_trips",
                    [this] { return memory_->avail_counters().monitor_trips; });
  av.expose_counter("devices_offlined",
                    [this] { return memory_->avail_counters().devices_offlined; });
  av.expose_counter("bounced_reads",
                    [this] { return memory_->avail_counters().bounced_reads; });
  av.expose_counter("lost_writes",
                    [this] { return memory_->avail_counters().lost_writes; });
  av.expose_counter("evac_jobs",
                    [this] { return memory_->avail_counters().evac_jobs; });
  av.expose_counter("evac_aborts",
                    [this] { return memory_->avail_counters().evac_aborts; });
  av.expose_counter("evac_pages_out",
                    [this] { return memory_->avail_counters().evac_pages_out; });
  av.expose_counter("evac_pages_in",
                    [this] { return memory_->avail_counters().evac_pages_in; });
  av.expose_counter("pages_retired",
                    [this] { return memory_->avail_counters().pages_retired; });
  av.expose_counter("retired_touches",
                    [this] { return memory_->avail_counters().retired_touches; });
  // Like ras/*, the tier/* subtree is opt-in with the feature. Counters are
  // lifetime totals sampled at snapshot time.
  const obs::Scope ts = root.sub("tier", cfg_.tiering.enabled);
  ts.expose_counter("epochs", [this] { return memory_->tier_counters().epochs; });
  ts.expose_counter("jobs_started",
                    [this] { return memory_->tier_counters().jobs_started; });
  ts.expose_counter("installs", [this] { return memory_->tier_counters().installs; });
  ts.expose_counter("promotions",
                    [this] { return memory_->tier_counters().promotions; });
  ts.expose_counter("demotions",
                    [this] { return memory_->tier_counters().demotions; });
  ts.expose_counter("migration_reads",
                    [this] { return memory_->tier_counters().migration_reads; });
  ts.expose_counter("migration_writes",
                    [this] { return memory_->tier_counters().migration_writes; });
  ts.expose_counter("migration_bytes",
                    [this] { return memory_->tier_counters().migration_bytes; });
  ts.expose_counter("remap_occupancy",
                    [this] { return memory_->tier_counters().remap_occupancy; });
  ts.expose_counter("fast/accesses",
                    [this] { return memory_->tier_counters().fast_accesses; });
  ts.expose_counter("capacity/accesses",
                    [this] { return memory_->tier_counters().capacity_accesses; });
  ts.expose("fast/fraction",
            [this] { return memory_->tier_counters().fast_fraction(); });
  for (std::uint32_t p = 0; p < memory_->ports(); ++p) {
    port_tile_.push_back(mesh_.memory_tile(p, memory_->ports()));
  }
  stream_table_.assign(u.cores,
                       std::vector<Addr>(std::max(1u, u.prefetch_streams), ~Addr{0}));
  stream_victim_.assign(u.cores, 0);
  // Hot-path containers: size once so steady state never reallocates.
  ops_.reserve(1024);
  free_ops_.reserve(1024);
  pending_mem_.reserve(256);
  pending_wb_.reserve(256);

  // Wake-up spine: one pending-wake slot per phase (events, pump, cores).
  core_slots_.resize(u.cores);
}

System::System(const sys::SystemConfig& cfg,
               const std::vector<workload::WorkloadParams>& per_core_workloads,
               std::uint64_t seed)
    : cfg_(cfg),
      mesh_(4, 3, cfg.uarch.noc_cycles_per_hop),
      n_slices_(cfg.uarch.cores),
      seed_(seed),
      wl_params_(per_core_workloads) {
  assert(per_core_workloads.size() >= cfg_.uarch.cores);
  build_shared_structures();
  for (std::uint32_t c = 0; c < cfg_.uarch.cores; ++c) {
    cores_.push_back(std::make_unique<core::Core>(
        c, cfg_.uarch, workload::Generator(per_core_workloads[c], c, seed)));
  }
}

System::System(const sys::SystemConfig& cfg,
               std::vector<std::unique_ptr<workload::InstrSource>> sources,
               const std::vector<double>& max_ipc, std::uint64_t seed)
    : cfg_(cfg),
      mesh_(4, 3, cfg.uarch.noc_cycles_per_hop),
      n_slices_(cfg.uarch.cores),
      seed_(seed) {
  assert(sources.size() >= cfg_.uarch.cores);
  assert(max_ipc.size() >= cfg_.uarch.cores);
  build_shared_structures();
  for (std::uint32_t c = 0; c < cfg_.uarch.cores; ++c) {
    cores_.push_back(std::make_unique<core::Core>(c, cfg_.uarch, std::move(sources[c]),
                                                  max_ipc[c]));
  }
}

System::~System() = default;

// ------------------------------------------------------------- op lifetime

std::uint32_t System::alloc_op() {
  if (!free_ops_.empty()) {
    const std::uint32_t id = free_ops_.back();
    free_ops_.pop_back();
    ops_[id] = MemOp{};
    return id;
  }
  ops_.emplace_back();
  return static_cast<std::uint32_t>(ops_.size() - 1);
}

void System::free_op(std::uint32_t id) {
  ops_[id].free = true;
  free_ops_.push_back(id);
}

void System::maybe_free_joined_op(std::uint32_t id) {
  MemOp& op = ops_[id];
  if (!op.finished) return;
  // A CALM op lives until both legs have landed so the late leg can be
  // recognised and discarded; serial ops have a single (memory) leg.
  if (op.calm && !(op.llc_resolved && op.mem_arrived)) return;
  free_op(id);
}

// ---------------------------------------------------------- wake-up spine

Cycle System::next_wake_cycle() const {
  Cycle next = std::min(events_slot_.at, pump_slot_.at);
  const std::uint32_t active = cfg_.uarch.active_cores;
  for (std::uint32_t c = 0; c < active; ++c) {
    next = std::min(next, core_slots_[c].at);
  }
  return next;
}

void System::dispatch_due(Cycle now) {
  // Repeated min-extraction in phase order: after every handler returns,
  // rescan from the first phase, because a handler may have armed an
  // earlier phase (or itself) at the current cycle. Each slot maps to a
  // unique phase priority, so this is exactly the dispatch order a
  // (cycle, priority) heap would produce.
  const std::uint32_t active = cfg_.uarch.active_cores;
  for (;;) {
    if (events_slot_.at <= now) {
      events_slot_.at = kNoCycle;
      ++sched_dispatches_;
      wake_events(now);
      continue;
    }
    if (pump_slot_.at <= now) {
      pump_slot_.at = kNoCycle;
      ++sched_dispatches_;
      wake_pump(now);
      continue;
    }
    std::uint32_t c = 0;
    while (c < active && core_slots_[c].at > now) ++c;
    if (c == active) return;
    core_slots_[c].at = kNoCycle;
    ++sched_dispatches_;
    wake_core(c, now);
  }
}

void System::wake_events(Cycle now) {
  COAXIAL_PROF_SCOPE(kEventDrain);
  events_slot_ = WakeSlot{};
  // The drain consumes same-cycle events pushed by its own handlers, so
  // schedule() must not re-arm the slot for those (it would fire a second,
  // redundant drain this cycle and leak the slot's dedupe invariant).
  in_events_drain_ = true;
  while (!events_.empty() && events_.top().cycle <= now) {
    const Event ev = events_.top();
    events_.pop();
    handle_event(ev);
  }
  in_events_drain_ = false;
  if (!events_.empty()) {
    arm(events_slot_, events_.top().cycle);
  }
}

void System::wake_pump(Cycle now) {
  pump_slot_ = WakeSlot{};
  pump_memory(now);  // Re-arms the slot from the memory system's own bound.
}

void System::wake_core(std::uint32_t c, Cycle now) {
  core_slots_[c] = WakeSlot{};
  cores_[c]->tick(now, *this);
  arm(core_slots_[c], cores_[c]->next_wake(now));
}

// ------------------------------------------------------------- event plumbing

void System::schedule(Cycle cycle, EventKind kind, std::uint32_t a, Addr line,
                      std::uint64_t aux) {
  events_.push(Event{cycle, kind, a, line, aux});
  if (in_events_drain_ && cycle <= now_) return;  // Active drain consumes it.
  // Events landing at or before the current cycle outside the drain phase
  // are handled at the next cycle's drain, exactly as the legacy loop did.
  arm(events_slot_, std::max(cycle, now_ + 1));
}

void System::handle_event(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kL2Lookup:
      handle_l2_lookup(ev.cycle, ev.a, ev.line, static_cast<Addr>(ev.aux));
      break;
    case EventKind::kLlcResult:
      handle_llc_result(ev.cycle, ev.a);
      break;
    case EventKind::kMemIssue: {
      MemOp& op = ops_[ev.a];
      if (op.t_mem_attempt == 0) op.t_mem_attempt = ev.cycle;
      if (memory_->can_accept(op.line, /*is_write=*/false, ev.cycle)) {
        op.t_mem_issued = ev.cycle;
        memory_->access(op.line, /*is_write=*/false, ev.cycle, ev.a);
        // The memory system has new work: make sure the pump runs this
        // cycle so controllers see it on the legacy schedule.
        arm(pump_slot_, now_);
      } else {
        park_pending_mem(ev.a, PendingStage::kNeedAdmission, ev.cycle);
      }
      break;
    }
    case EventKind::kMemArrive:
      handle_mem_arrive(ev.cycle, ev.a);
      break;
    case EventKind::kOpFinish:
      finish_op(ev.cycle, ev.a, /*data_from_memory=*/ev.aux != 0);
      break;
    case EventKind::kL1Fill:
      fill_l1(ev.a, ev.line, ev.cycle);
      break;
  }
}

// --------------------------------------------------------------- MemoryPort

core::IssueResult System::issue_load(std::uint32_t c, Addr addr, Addr pc,
                                     std::uint64_t waiter, Cycle now) {
  const Addr line = addr / kLineBytes;
  cache::Mshr& mshr = *l1_mshr_[c];
  if (mshr.holds(line)) {
    mshr.on_miss(line, waiter);
    return core::IssueResult::kAccepted;
  }
  if (l1_[c]->lookup(line)) return core::IssueResult::kHitL1;
  if (mshr.full()) return core::IssueResult::kRetry;
  mshr.on_miss(line, waiter);
  schedule(now + cfg_.uarch.l1_latency, EventKind::kL2Lookup, c, line, pc);
  return core::IssueResult::kAccepted;
}

core::IssueResult System::issue_store(std::uint32_t c, Addr addr, Addr pc,
                                      std::uint64_t waiter, Cycle now) {
  const Addr line = addr / kLineBytes;
  cache::Mshr& mshr = *l1_mshr_[c];
  if (mshr.holds(line)) {
    mshr.on_miss(line, waiter);
    return core::IssueResult::kAccepted;
  }
  if (l1_[c]->write(line)) return core::IssueResult::kHitL1;
  if (mshr.full()) return core::IssueResult::kRetry;
  // Write-allocate: fetch ownership of the line (RFO), then mark dirty.
  mshr.on_miss(line, waiter);
  schedule(now + cfg_.uarch.l1_latency, EventKind::kL2Lookup, c, line, pc);
  return core::IssueResult::kAccepted;
}

// ------------------------------------------------------------- L2 and below

void System::handle_l2_lookup(Cycle t, std::uint32_t c, Addr line, Addr pc) {
  maybe_prefetch(t, c, line);
  if (l2_[c]->lookup(line)) {
    // Demand hit on a line a prefetch filled poisoned: the core consumes
    // the poison (machine check), then the detecting level scrubs it.
    if (ras_enabled_ && l2_[c]->poisoned(line)) {
      cores_[c]->record_machine_check();
      l2_[c]->clear_poison(line);
    }
    schedule(t + cfg_.uarch.l2_latency, EventKind::kL1Fill, c, line);
    return;
  }
  cache::Mshr& mshr = *l2_mshr_[c];
  if (mshr.holds(line)) {
    mshr.on_miss(line, 0);
    return;  // Same-line op already in flight; L2 fill will satisfy the L1.
  }
  if (mshr.full()) {
    // Structural stall: replay shortly. A replayed lookup may legitimately
    // hit if the line was filled in the meantime.
    schedule(t + kRetryInterval, EventKind::kL2Lookup, c, line, pc);
    return;
  }
  mshr.on_miss(line, 0);
  issue_l2_miss_op(t, c, line, pc, /*prefetch=*/false);
}

void System::maybe_prefetch(Cycle t, std::uint32_t c, Addr line) {
  // ChampSim-style L2 stream prefetcher: a demand access to the successor
  // of a tracked line advances the stream and prefetches the next
  // `prefetch_degree` lines into L2/LLC.
  if (cfg_.uarch.prefetch_degree == 0) return;
  auto& table = stream_table_[c];
  for (Addr& last : table) {
    if (last + 1 != line) continue;
    last = line;
    cache::Mshr& mshr = *l2_mshr_[c];
    for (std::uint32_t d = 1; d <= cfg_.uarch.prefetch_degree; ++d) {
      const Addr target = line + d;
      // Keep prefetches from starving demand misses of MSHR capacity.
      if (mshr.in_flight() * 4 >= mshr.capacity() * 3) return;
      if (mshr.holds(target) || l2_[c]->probe(target)) continue;
      mshr.on_miss(target, 0);
      ++prefetches_issued_;
      issue_l2_miss_op(t, c, target, /*pc=*/0, /*prefetch=*/true);
    }
    return;
  }
  // New candidate stream: displace round-robin.
  table[stream_victim_[c]] = line;
  stream_victim_[c] = (stream_victim_[c] + 1) % static_cast<std::uint32_t>(table.size());
}

void System::issue_l2_miss_op(Cycle t, std::uint32_t c, Addr line, Addr pc,
                              bool prefetch) {
  const std::uint32_t op_id = alloc_op();
  MemOp& op = ops_[op_id];
  op.line = line;
  op.pc = pc;
  op.core = c;
  op.port = memory_->port_of(line);
  op.prefetch = prefetch;
  op.t_start = t + cfg_.uarch.l2_latency;  // Miss determined after L2 lookup.

  const std::uint32_t slice = llc_slice(line);
  if (!prefetch) {
    op.calm = calm_->decide(c, line, pc, op.t_start, *llc_[slice]);
    if (op.calm) {
      // Concurrent probe: request travels core tile -> memory port tile.
      schedule(op.t_start + mesh_.latency(c, port_tile_[op.port]), EventKind::kMemIssue,
               op_id);
    }
  }
  schedule(op.t_start + mesh_.latency(c, slice) + cfg_.uarch.llc_latency,
           EventKind::kLlcResult, op_id);
}

void System::handle_llc_result(Cycle t, std::uint32_t op_id) {
  MemOp& op = ops_[op_id];
  const std::uint32_t slice = llc_slice(op.line);
  const bool hit = llc_[slice]->lookup(op.line);
  op.llc_resolved = true;
  op.llc_hit = hit;
  op.llc_leg_at_core = t + mesh_.latency(slice, op.core);
  if (!op.prefetch) calm_->on_llc_result(op.core, op.pc, hit, op.calm, t);
  // LLC hit/miss statistics (and thus MPKI) count demand and prefetch
  // lookups alike, matching how an LLC-side counter (and Table IV) sees it.
  if (hit) {
    llc_hits_->inc();
    op.onchip_cycles = mesh_.latency(op.core, slice) + cfg_.uarch.llc_latency +
                       mesh_.latency(slice, op.core);
    schedule(op.llc_leg_at_core, EventKind::kOpFinish, op_id, 0, /*from_memory=*/0);
    return;
  }
  llc_misses_->inc();
  if (op.calm) {
    if (op.mem_arrived) {
      // Memory beat the LLC miss-ack: the ack is the critical path (§IV-C:
      // CALM always awaits the LLC response).
      const Cycle finish = std::max(op.mem_leg_at_core, op.llc_leg_at_core);
      op.onchip_cycles = mesh_.latency(op.core, port_tile_[op.port]) +
                         mesh_.latency(port_tile_[op.port], op.core) +
                         (finish - op.mem_leg_at_core);
      schedule(finish, EventKind::kOpFinish, op_id, 0, /*from_memory=*/1);
    }
    return;  // Else: memory leg in flight; it will complete the join.
  }
  // Serial path: LLC slice forwards the miss to the memory controller.
  op.onchip_cycles = mesh_.latency(op.core, slice) + cfg_.uarch.llc_latency +
                     mesh_.latency(slice, port_tile_[op.port]) +
                     mesh_.latency(port_tile_[op.port], op.core);
  cache::Mshr& mshr = *llc_mshr_[slice];
  if (mshr.holds(op.line)) {
    mshr.on_miss(op.line, op_id);  // Piggyback on the in-flight fetch.
    return;
  }
  if (mshr.full()) {
    park_pending_mem(op_id, PendingStage::kNeedLlcMshr, t);
    return;
  }
  mshr.on_miss(op.line, op_id);
  schedule(t + mesh_.latency(slice, port_tile_[op.port]), EventKind::kMemIssue, op_id);
}

void System::handle_mem_arrive(Cycle t, std::uint32_t op_id) {
  MemOp& op = ops_[op_id];
  op.mem_arrived = true;
  op.mem_leg_at_core = t;
  if (!op.calm) {
    finish_op(t, op_id, /*data_from_memory=*/true);
    return;
  }
  if (!op.llc_resolved) return;  // LLC leg will complete the join.
  if (op.llc_hit) {
    // False positive: LLC already served the op; the (possibly stale)
    // memory response is discarded. Bandwidth was spent regardless.
    maybe_free_joined_op(op_id);
    return;
  }
  const Cycle finish = std::max(t, op.llc_leg_at_core);
  op.onchip_cycles = mesh_.latency(op.core, port_tile_[op.port]) +
                     mesh_.latency(port_tile_[op.port], op.core) + (finish - t);
  if (finish == t) {
    finish_op(t, op_id, /*data_from_memory=*/true);
  } else {
    schedule(finish, EventKind::kOpFinish, op_id, 0, /*from_memory=*/1);
  }
}

void System::finish_op(Cycle t, std::uint32_t op_id, bool data_from_memory) {
  MemOp& op = ops_[op_id];
  if (op.finished) {
    maybe_free_joined_op(op_id);
    return;
  }
  op.finished = true;

  if (!op.prefetch) {
    // Latency accounting (measurement window only; ops straddling the
    // boundary contribute fully — negligible at the budgets used).
    ops_finished_->inc();
    l2_miss_hist_->add(t - op.t_start);
    lat_total_sum_->add(static_cast<double>(t - op.t_start));
    lat_onchip_sum_->add(static_cast<double>(op.onchip_cycles));
    if (op.t_mem_issued > op.t_mem_attempt && op.t_mem_attempt != 0) {
      lat_pending_sum_->add(static_cast<double>(op.t_mem_issued - op.t_mem_attempt));
    }
    // Memory-side components of this demand op's own read (zero for LLC
    // hits and for CALM ops served by the LLC whose probe is discarded).
    if (data_from_memory) {
      lat_dram_service_sum_->add(static_cast<double>(op.mem_dram_service));
      lat_dram_queue_sum_->add(static_cast<double>(op.mem_dram_queue));
      lat_cxl_interface_sum_->add(static_cast<double>(op.mem_cxl_interface));
      lat_cxl_queue_sum_->add(static_cast<double>(op.mem_cxl_queue));
    }
  }

  if (ras_enabled_) {
    if (data_from_memory && op.mem_poisoned && !op.prefetch) {
      // A demand op consumed poisoned memory data: machine check, then the
      // hardware scrubs the line before it enters the hierarchy. Prefetch
      // ops skip this branch and fill the poison silently — the event fires
      // only when a later demand access consumes the line.
      cores_[op.core]->record_machine_check();
      op.mem_poisoned = false;
    } else if (!data_from_memory && !op.prefetch) {
      // Data served from the LLC (hit or piggyback on an in-flight fetch):
      // consume any poison parked there by an earlier prefetch fill.
      const std::uint32_t slice = llc_slice(op.line);
      if (llc_[slice]->poisoned(op.line)) {
        cores_[op.core]->record_machine_check();
        llc_[slice]->clear_poison(op.line);
      }
    }
  }

  if (data_from_memory) fill_llc_from_memory(op_id, t);

  // Fill L2, then L1 (waking the core's waiters; prefetches stop at L2).
  if (auto victim = l2_[op.core]->fill(op.line, /*dirty=*/false,
                                       data_from_memory && op.mem_poisoned)) {
    l2_victim(op.core, *victim, t);
  }
  l2_mshr_[op.core]->on_fill(op.line);
  // A demand miss may have merged into an in-flight prefetch at the L2
  // MSHR; its L1 waiters must still be served when the prefetch lands.
  if (!op.prefetch || l1_mshr_[op.core]->holds(op.line)) {
    fill_l1(op.core, op.line, t);
  }

  maybe_free_joined_op(op_id);
}

void System::fill_llc_from_memory(std::uint32_t op_id, Cycle t) {
  MemOp& op = ops_[op_id];
  const std::uint32_t slice = llc_slice(op.line);
  if (auto victim = llc_[slice]->fill(op.line, /*dirty=*/false, op.mem_poisoned)) {
    llc_victim(slice, *victim, t);
  }
  // Release the slice MSHR entry and complete any piggybacked ops.
  for (std::uint64_t waiter : llc_mshr_[slice]->on_fill(op.line)) {
    const std::uint32_t waiting_op = static_cast<std::uint32_t>(waiter);
    if (waiting_op == op_id) continue;
    // Data is now in the LLC; the piggybacked op finishes here too (its
    // own L2/L1 fills happen inside finish_op).
    finish_op(t, waiting_op, /*data_from_memory=*/false);
  }
}

void System::fill_l1(std::uint32_t c, Addr line, Cycle t) {
  // A demand miss that merged into a poisoned prefetch fill consumes the
  // poison here, when the L2 copy is handed up to the waiters. The L1 fill
  // below is always clean (machine check + scrub happen at this boundary),
  // so the L1 never holds poison and its hit path needs no check.
  if (ras_enabled_ && l2_[c]->poisoned(line)) {
    cores_[c]->record_machine_check();
    l2_[c]->clear_poison(line);
  }
  if (auto victim = l1_[c]->fill(line, /*dirty=*/false)) {
    if (victim->dirty) {
      // Write the dirty victim into L2 (allocate on miss).
      if (!l2_[c]->write(victim->line)) {
        if (auto l2v = l2_[c]->fill(victim->line, /*dirty=*/true)) {
          l2_victim(c, *l2v, t);
        }
      }
    }
  }
  for (std::uint64_t waiter : l1_mshr_[c]->on_fill(line)) {
    if (core::Core::waiter_is_store(waiter)) {
      l1_[c]->mark_dirty(line);
      cores_[c]->on_store_complete(t);
    } else {
      cores_[c]->on_load_complete(waiter, t);
    }
  }
  // Waiter callbacks happen in the event-drain phase; the core's own phase
  // is later in the same cycle, so it can react immediately (legacy cores
  // ticked every cycle and saw completions the cycle they landed).
  arm(core_slots_[c], now_);
}

void System::l2_victim(std::uint32_t /*core*/, const cache::Eviction& ev, Cycle t) {
  if (!ev.dirty) return;  // Non-inclusive: clean victims are dropped.
  const std::uint32_t slice = llc_slice(ev.line);
  if (llc_[slice]->write(ev.line)) return;  // Present in LLC: merge dirty.
  if (auto victim = llc_[slice]->fill(ev.line, /*dirty=*/true)) {
    llc_victim(slice, *victim, t);
  }
}

void System::llc_victim(std::uint32_t /*slice*/, const cache::Eviction& ev, Cycle /*t*/) {
  if (!ev.dirty) return;
  pending_wb_.push_back(ev.line);
  arm(pump_slot_, now_);  // Issue the WB this cycle.
}

void System::park_pending_mem(std::uint32_t op_id, PendingStage stage, Cycle /*t*/) {
  pending_mem_.push_back({op_id, stage});
  // The pump retries parked ops every cycle, starting this one (parks only
  // happen in the event-drain phase, which precedes the pump).
  arm(pump_slot_, now_);
}

// --------------------------------------------------------------- main loop

void System::pump_memory(Cycle now) {
  COAXIAL_PROF_SCOPE(kMemPump);
  // Drain memory completions into arrival events (NoC: port -> core).
  const Cycle mem_wake = memory_->tick(now);
  auto& comps = memory_->completions();
  for (const auto& c : comps) {
    const std::uint32_t op_id = static_cast<std::uint32_t>(c.token);
    MemOp& op = ops_[op_id];
    op.mem_dram_service = c.dram_service;
    op.mem_dram_queue = c.dram_queue;
    op.mem_cxl_interface = c.cxl_interface;
    op.mem_cxl_queue = c.cxl_queue;
    op.mem_poisoned = c.poisoned;
    schedule(c.done + mesh_.latency(port_tile_[op.port], op.core), EventKind::kMemArrive,
             op_id);
  }
  comps.clear();

  // Retry parked ops (oldest first) and writebacks.
  bool issued = false;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_mem_.size(); ++i) {
    PendingMem p = pending_mem_[i];
    MemOp& op = ops_[p.op];
    bool done = false;
    if (p.stage == PendingStage::kNeedLlcMshr) {
      cache::Mshr& mshr = *llc_mshr_[llc_slice(op.line)];
      if (mshr.holds(op.line)) {
        mshr.on_miss(op.line, p.op);
        done = true;
      } else if (!mshr.full()) {
        mshr.on_miss(op.line, p.op);
        p.stage = PendingStage::kNeedAdmission;
      }
    }
    if (!done && p.stage == PendingStage::kNeedAdmission) {
      if (op.t_mem_attempt == 0) op.t_mem_attempt = now;
      if (memory_->can_accept(op.line, /*is_write=*/false, now)) {
        op.t_mem_issued = now;
        memory_->access(op.line, /*is_write=*/false, now, p.op);
        done = true;
        issued = true;
      }
    }
    if (!done) pending_mem_[kept++] = p;
  }
  pending_mem_.resize(kept);

  kept = 0;
  for (std::size_t i = 0; i < pending_wb_.size(); ++i) {
    const Addr line = pending_wb_[i];
    if (memory_->can_accept(line, /*is_write=*/true, now)) {
      memory_->access(line, /*is_write=*/true, now, 0);
      issued = true;
    } else {
      pending_wb_[kept++] = line;
    }
  }
  pending_wb_.resize(kept);

  // Self-schedule: the memory system's own bound, tightened to the very
  // next cycle when new work just entered it or parked ops must retry.
  Cycle wake = mem_wake;
  if (issued || !pending_mem_.empty() || !pending_wb_.empty()) {
    wake = std::min(wake, now + 1);
  }
  arm(pump_slot_, wake);
}

void System::reset_window_stats() {
  window_start_ = now_;
  snap_at_window_ = memory_->snapshot();
  ops_finished_->reset();
  lat_total_sum_->reset();
  lat_onchip_sum_->reset();
  lat_pending_sum_->reset();
  lat_dram_service_sum_->reset();
  lat_dram_queue_sum_->reset();
  lat_cxl_interface_sum_->reset();
  lat_cxl_queue_sum_->reset();
  llc_hits_->reset();
  llc_misses_->reset();
  prefetch_window_base_ = prefetches_issued_;
  l2_miss_hist_->reset();
  for (auto& c : cores_) c->reset_window();
  stats_ = RunStats{};
  stats_.calm = calm_->stats();  // Base for the delta at collection.
}

void System::collect_window_stats() {
  stats_.cycles = now_ - window_start_;
  stats_.l2_miss_ops = ops_finished_->value();
  stats_.lat_total_sum = lat_total_sum_->value();
  stats_.lat_onchip_sum = lat_onchip_sum_->value();
  stats_.lat_pending_sum = lat_pending_sum_->value();
  stats_.lat_dram_service_sum = lat_dram_service_sum_->value();
  stats_.lat_dram_queue_sum = lat_dram_queue_sum_->value();
  stats_.lat_cxl_interface_sum = lat_cxl_interface_sum_->value();
  stats_.lat_cxl_queue_sum = lat_cxl_queue_sum_->value();
  stats_.llc_hits = llc_hits_->value();
  stats_.llc_misses = llc_misses_->value();
  stats_.prefetches = prefetches_issued_ - prefetch_window_base_;
  stats_.lat_p50_ns = cycles_to_ns(l2_miss_hist_->percentile(0.50));
  stats_.lat_p90_ns = cycles_to_ns(l2_miss_hist_->percentile(0.90));
  stats_.lat_p99_ns = cycles_to_ns(l2_miss_hist_->percentile(0.99));
  stats_.mem = snapshot_delta(memory_->snapshot(), snap_at_window_);
  stats_.calm = calm_delta(calm_->stats(), stats_.calm);
  // Scheduler activity is whole-run (warmup included): skipping happens
  // during warmup too and that is part of the wall-clock story.
  stats_.sched_events = sched_dispatches_;
  stats_.sched_cycles_dispatched = sched_cycles_dispatched_;
  stats_.sched_cycles_skipped = sched_cycles_skipped_;
}

void System::publish_run_metrics() {
  // Window results and derived figures, so a registry snapshot after run()
  // carries everything the CSV emitters and RunStats helpers compute.
  const obs::Scope run(&metrics_, "run");
  run.counter("cycles")->set(stats_.cycles);
  run.counter("instructions")->set(stats_.instructions);
  run.counter("prefetches")->set(stats_.prefetches);
  run.gauge("ipc_per_core")->set(stats_.ipc_per_core);
  for (std::size_t c = 0; c < stats_.core_ipc.size(); ++c) {
    run.gauge("core_ipc/" + obs::idx(static_cast<std::uint32_t>(c)))
        ->set(stats_.core_ipc[c]);
  }
  run.gauge("lat/p50_ns")->set(stats_.lat_p50_ns);
  run.gauge("lat/p90_ns")->set(stats_.lat_p90_ns);
  run.gauge("lat/p99_ns")->set(stats_.lat_p99_ns);
  run.gauge("lat/avg_total_ns")->set(stats_.avg_total_ns());
  run.gauge("lat/avg_onchip_ns")->set(stats_.avg_onchip_ns());
  run.gauge("lat/avg_pending_ns")->set(stats_.avg_pending_ns());
  run.gauge("lat/avg_dram_service_ns")->set(stats_.avg_dram_service_ns());
  run.gauge("lat/avg_dram_queue_ns")->set(stats_.avg_dram_queue_ns());
  run.gauge("lat/avg_cxl_interface_ns")->set(stats_.avg_cxl_interface_ns());
  run.gauge("lat/avg_cxl_queue_ns")->set(stats_.avg_cxl_queue_ns());
  run.gauge("llc/miss_ratio")->set(stats_.llc_miss_ratio());
  run.gauge("llc/mpki")->set(stats_.llc_mpki());
  run.gauge("bw/read_gbps")->set(stats_.read_gbps());
  run.gauge("bw/write_gbps")->set(stats_.write_gbps());
  run.gauge("bw/utilization")->set(stats_.bandwidth_utilization());
  // Memory-system deltas over the window (the cumulative counters live
  // under `mem/`; these are the RunStats view of the same quantities).
  const obs::Scope m = run.sub("mem");
  m.counter("reads")->set(stats_.mem.reads);
  m.counter("writes")->set(stats_.mem.writes);
  m.gauge("dram_service_sum")->set(stats_.mem.dram_service_sum);
  m.gauge("dram_queue_sum")->set(stats_.mem.dram_queue_sum);
  m.gauge("cxl_interface_sum")->set(stats_.mem.cxl_interface_sum);
  m.gauge("cxl_queue_sum")->set(stats_.mem.cxl_queue_sum);
  m.gauge("data_bus_busy")->set(stats_.mem.data_bus_busy);
  m.gauge("row_hit_rate")->set(stats_.mem.row_hit_rate);
  const obs::Scope cs = run.sub("calm");
  cs.counter("decisions")->set(stats_.calm.decisions);
  cs.counter("probes")->set(stats_.calm.probes);
  cs.counter("true_positives")->set(stats_.calm.true_positives);
  cs.counter("false_positives")->set(stats_.calm.false_positives);
  cs.counter("true_negatives")->set(stats_.calm.true_negatives);
  cs.counter("false_negatives")->set(stats_.calm.false_negatives);
}

void System::prewarm_caches(std::uint64_t seed) {
  if (wl_params_.empty()) return;  // Trace-driven runs: no layout knowledge.
  // Seed caches with approximate steady-state content before the timed
  // warmup. This substitutes for trace-checkpoint warmup: filling a 24 MB
  // LLC through low-MPKI workloads would need tens of millions of timed
  // instructions. Hot-tier lines go to L1/L2, mid-tier lines to the LLC,
  // and the remaining LLC capacity is filled with cold-tier lines (which a
  // stationary generator is about to stream over anyway). Lines are marked
  // dirty with the workload's store probability so write-back traffic is
  // active from the start of measurement.
  Rng rng(seed ^ 0x77a3);
  const std::uint32_t active = cfg_.uarch.active_cores;
  const std::uint64_t llc_lines_total =
      (static_cast<std::uint64_t>(cfg_.uarch.llc_mb_per_core) << 20) / kLineBytes *
      n_slices_;
  const std::uint64_t llc_share = llc_lines_total / std::max(1u, active);

  for (std::uint32_t c = 0; c < active; ++c) {
    const workload::WorkloadParams& p = wl_params_[c];
    const workload::Regions r = workload::region_layout(p, c);
    const double dirty_p = p.store_fraction;

    auto fill_llc = [&](Addr line, bool dirty) {
      const std::uint32_t slice = llc_slice(line);
      llc_[slice]->fill(line, dirty);  // Pre-warm displacements are dropped.
    };

    // Mid tier: LLC-resident by construction (if it fits the core's share).
    const std::uint64_t mid_lines = r.mid_bytes / kLineBytes;
    const std::uint64_t mid_insert = std::min(mid_lines, llc_share);
    for (std::uint64_t i = 0; i < mid_insert; ++i) {
      fill_llc(r.mid_base / kLineBytes + i, rng.chance(dirty_p));
    }
    // Cold tier: fill the rest of the share with random cold lines.
    const std::uint64_t cold_lines = r.cold_bytes / kLineBytes;
    for (std::uint64_t i = mid_insert; i < llc_share; ++i) {
      fill_llc(r.cold_base / kLineBytes + rng.next_below(cold_lines),
               rng.chance(dirty_p));
    }

    // Hot tier: private caches. L2 first (sequential), most-recent into L1.
    const std::uint64_t hot_lines = r.hot_bytes / kLineBytes;
    const std::uint64_t l2_lines =
        static_cast<std::uint64_t>(cfg_.uarch.l2_kb) * 1024 / kLineBytes;
    const std::uint64_t l1_lines =
        static_cast<std::uint64_t>(cfg_.uarch.l1_kb) * 1024 / kLineBytes;
    for (std::uint64_t i = 0; i < std::min(hot_lines, l2_lines); ++i) {
      l2_[c]->fill(r.hot_base / kLineBytes + i, rng.chance(dirty_p));
    }
    for (std::uint64_t i = 0; i < std::min(hot_lines, l1_lines); ++i) {
      l1_[c]->fill(r.hot_base / kLineBytes + rng.next_below(hot_lines),
                   rng.chance(dirty_p));
    }
  }
  for (auto& cache : l1_) cache->reset_stats();
  for (auto& cache : l2_) cache->reset_stats();
  for (auto& cache : llc_) cache->reset_stats();
}

void System::set_tick_every_cycle(bool v) {
  tick_every_cycle_ = v;
  memory_->set_force_tick(v);
}

void System::run(std::uint64_t warmup_instr, std::uint64_t measure_instr) {
  prewarm_caches(seed_);
  const std::uint32_t active = cfg_.uarch.active_cores;
  auto all_reached = [&](std::uint64_t target) {
    for (std::uint32_t c = 0; c < active; ++c) {
      if (cores_[c]->retired() < target) return false;
    }
    return true;
  };

  if (!tick_every_cycle_) {
    // Prime the spine: the pump and every active core get an initial
    // wake-up; everything after that is self- or callback-scheduled.
    arm(pump_slot_, now_ + 1);
    for (std::uint32_t c = 0; c < active; ++c) {
      arm(core_slots_[c], now_ + 1);
    }
  }

  auto step = [&] {
    if (tick_every_cycle_) {
      // Reference loop: advance every phase every cycle.
      ++now_;
      {
        COAXIAL_PROF_SCOPE(kEventDrain);
        while (!events_.empty() && events_.top().cycle <= now_) {
          const Event ev = events_.top();
          events_.pop();
          handle_event(ev);
        }
      }
      pump_memory(now_);
      for (std::uint32_t c = 0; c < active; ++c) cores_[c]->tick(now_, *this);
      return;
    }
    // Event-driven loop: jump straight to the next populated cycle and
    // dispatch its due wake-ups in phase order (events, pump, cores).
    const Cycle next = next_wake_cycle();
    if (next == kNoCycle) {
      // Every in-flight chain ends in a wake-up or callback; an empty
      // scheduler with unfinished cores means a lost wake-up (a bug).
      throw std::logic_error("System: scheduler drained before cores finished");
    }
    sched_cycles_skipped_ += next - now_ - 1;
    now_ = next;
    ++sched_cycles_dispatched_;
    COAXIAL_PROF_SCOPE(kSchedDispatch);
    dispatch_due(now_);
  };

  // Warmup phase.
  if (warmup_instr > 0) {
    while (!all_reached(warmup_instr)) step();
  }
  reset_window_stats();

  // Measurement phase: per-core IPC uses each core's own completion cycle.
  std::vector<Cycle> finish_cycle(active, 0);
  std::uint32_t remaining = active;
  while (remaining > 0) {
    step();
    for (std::uint32_t c = 0; c < active; ++c) {
      if (finish_cycle[c] == 0 && cores_[c]->retired() >= measure_instr) {
        finish_cycle[c] = now_;
        --remaining;
      }
    }
  }
  collect_window_stats();

  stats_.core_ipc.resize(active);
  double ipc_sum = 0;
  std::uint64_t instr = 0;
  for (std::uint32_t c = 0; c < active; ++c) {
    const double cycles = static_cast<double>(finish_cycle[c] - window_start_);
    stats_.core_ipc[c] = static_cast<double>(measure_instr) / cycles;
    ipc_sum += stats_.core_ipc[c];
    instr += measure_instr;
  }
  stats_.instructions = instr;
  stats_.ipc_per_core = ipc_sum / static_cast<double>(active);
  publish_run_metrics();
}

}  // namespace coaxial::sim
