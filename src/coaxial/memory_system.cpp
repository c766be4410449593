#include "coaxial/memory_system.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "ras/fault_injector.hpp"

namespace coaxial::mem {

namespace {
/// Device-side ingress buffer bound per sub-channel (CXL controller message
/// queue, §V "the CXL controller maintains message queues to buffer
/// requests").
constexpr std::size_t kDeviceIngressDepth = 64;
}  // namespace

void accumulate(dram::ControllerStats& into, const dram::ControllerStats& from) {
  into.reads_done += from.reads_done;
  into.writes_done += from.writes_done;
  into.reads_forwarded += from.reads_forwarded;
  into.row_hits += from.row_hits;
  into.row_misses += from.row_misses;
  into.row_conflicts += from.row_conflicts;
  into.activates += from.activates;
  into.precharges += from.precharges;
  into.refreshes += from.refreshes;
  into.data_bus_busy_cycles += from.data_bus_busy_cycles;
  into.read_queue_delay_sum += from.read_queue_delay_sum;
  into.read_service_sum += from.read_service_sum;
}

/// Aggregate probes common to all topologies, sampled from snapshot() at
/// registry-snapshot time (zero hot-path cost).
void register_aggregate_probes(const obs::Scope& scope, const MemorySystem& mem) {
  scope.expose_counter("reads", [&mem] { return mem.snapshot().reads; });
  scope.expose_counter("writes", [&mem] { return mem.snapshot().writes; });
  scope.expose("dram_service_sum", [&mem] { return mem.snapshot().dram_service_sum; });
  scope.expose("dram_queue_sum", [&mem] { return mem.snapshot().dram_queue_sum; });
  scope.expose("cxl_interface_sum", [&mem] { return mem.snapshot().cxl_interface_sum; });
  scope.expose("cxl_queue_sum", [&mem] { return mem.snapshot().cxl_queue_sum; });
  scope.expose("data_bus_busy", [&mem] { return mem.snapshot().data_bus_busy; });
  scope.expose("row_hit_rate", [&mem] { return mem.snapshot().row_hit_rate; });
  scope.expose_counter("subchannels", [&mem] { return mem.snapshot().subchannels; });
  scope.expose("peak_gbps", [&mem] { return mem.peak_gbps(); });
}

// ---------------------------------------------------------------- baseline

DirectDdrMemory::DirectDdrMemory(std::uint32_t channels, const dram::Timing& timing,
                                 const dram::Geometry& geometry, obs::Scope scope)
    : channels_(channels) {
  const std::uint32_t n_sub = channels * 2;
  ctrls_.reserve(n_sub);
  for (std::uint32_t i = 0; i < n_sub; ++i) {
    ctrls_.push_back(std::make_unique<dram::Controller>(
        timing, geometry, 64, 64, scope.sub("dram/ctrl" + obs::idx(i))));
  }
  ctrl_wake_.assign(n_sub, 0);
  out_.reserve(64);
  if (scope.valid()) register_aggregate_probes(scope, *this);
}

bool DirectDdrMemory::can_accept(Addr line, bool is_write, Cycle) const {
  return ctrls_[line % subchannels()]->can_accept(is_write);
}

void DirectDdrMemory::access(Addr line, bool is_write, Cycle now, std::uint64_t token) {
  const std::uint32_t sub = static_cast<std::uint32_t>(line % subchannels());
  const Addr local = line / subchannels();
  const bool ok = ctrls_[sub]->enqueue(local, is_write, now, token);
  assert(ok && "caller must check can_accept first");
  (void)ok;
  ctrl_wake_[sub] = now;  // New work (or a forwarded completion) to process.
}

Cycle DirectDdrMemory::tick(Cycle now) {
  Cycle wake = kNoCycle;
  for (std::size_t i = 0; i < ctrls_.size(); ++i) {
    if (!force_tick_ && ctrl_wake_[i] > now) {
      // Controller is provably inert until its cached wake cycle; skipping
      // it cannot change results (its constraint timestamps are frozen and
      // it has no pending completions).
      wake = std::min(wake, ctrl_wake_[i]);
      continue;
    }
    dram::Controller& c = *ctrls_[i];
    ctrl_wake_[i] = c.tick(now);
    wake = std::min(wake, ctrl_wake_[i]);
    auto& done = c.completions();
    for (const auto& comp : done) {
      out_.push_back({comp.token, comp.done, comp.service, comp.queue_delay, 0, 0});
    }
    done.clear();
  }
  return wake;
}

MemorySnapshot DirectDdrMemory::snapshot() const {
  MemorySnapshot s;
  const dram::ControllerStats agg = aggregate_dram_stats();
  s.reads = agg.reads_done + agg.reads_forwarded;
  s.writes = agg.writes_done;
  s.dram_service_sum = agg.read_service_sum;
  s.dram_queue_sum = agg.read_queue_delay_sum;
  s.data_bus_busy = static_cast<double>(agg.data_bus_busy_cycles);
  s.subchannels = subchannels();
  s.peak_gbps = peak_gbps();
  s.row_hit_rate = agg.row_hit_rate();
  return s;
}

void DirectDdrMemory::reset_stats() {
  for (auto& c : ctrls_) c->reset_stats();
}

dram::ControllerStats DirectDdrMemory::aggregate_dram_stats() const {
  dram::ControllerStats agg;
  for (const auto& c : ctrls_) accumulate(agg, c->stats());
  return agg;
}

// ----------------------------------------------------------------- COAXIAL

CxlMemory::CxlMemory(std::uint32_t cxl_channels, std::uint32_t ddr_per_device,
                     const link::LaneConfig& lanes, const dram::Timing& timing,
                     const dram::Geometry& geometry, obs::Scope scope,
                     const ras::FaultPlan& plan)
    : CxlMemory(fabric::FabricConfig::direct(), cxl_channels, ddr_per_device, lanes,
                timing, geometry, scope, plan) {}

CxlMemory::CxlMemory(const fabric::FabricConfig& fab, std::uint32_t cxl_channels,
                     std::uint32_t ddr_per_device, const link::LaneConfig& lanes,
                     const dram::Timing& timing, const dram::Geometry& geometry,
                     obs::Scope scope, const ras::FaultPlan& plan)
    : CxlMemory(fab, cxl_channels, ddr_per_device, lanes,
                placement::AddressMap::passthrough(
                    fab.interleave, fab.devices != 0 ? fab.devices : cxl_channels,
                    ddr_per_device * 2, fab.page_lines, fab.contiguous_lines),
                timing, geometry, scope, plan) {}

CxlMemory::CxlMemory(const fabric::FabricConfig& fab, std::uint32_t cxl_channels,
                     std::uint32_t ddr_per_device, const link::LaneConfig& lanes,
                     placement::AddressMap stage2, const dram::Timing& timing,
                     const dram::Geometry& geometry, obs::Scope scope,
                     const ras::FaultPlan& plan)
    : ddr_per_device_(ddr_per_device),
      subchannels_per_device_(ddr_per_device * 2),
      lane_cfg_(lanes),
      plan_(plan),
      fabric_(std::make_unique<fabric::Fabric>(fab, cxl_channels, lanes, scope)),
      amap_(std::move(stage2)) {
  if (amap_.tiered_mode()) {
    throw std::invalid_argument(
        "CxlMemory: stage-2 AddressMap must be in pass-through mode "
        "(tiered decode belongs to placement::TieredMemory)");
  }
  if (amap_.devices() != fabric_->devices()) {
    throw std::invalid_argument(
        "CxlMemory: AddressMap devices (" + std::to_string(amap_.devices()) +
        ") must match fabric devices (" + std::to_string(fabric_->devices()) + ")");
  }
  // Debug guard: any decode past the fabric's device list now throws
  // instead of silently misrouting into per-device state.
  amap_.set_device_bound(fabric_->devices());
  plan_.validate();
  fabric_->arm_faults(plan_);
  n_devices_ = fabric_->devices();
  plan_.validate_devices(n_devices_);
  avail_on_ = plan_.device_failure();
  fail_stream_ = ras::mix_u64(plan_.seed ^ ras::fnv1a("device/fail"));
  fixed_read_overhead_ = fabric_->unloaded_tx_cycles(link::kReadRequestBytes) +
                         fabric_->unloaded_rx_cycles(link::kReadResponseBytes);
  pending_responses_.resize(n_devices_);
  const std::uint32_t n_sub = subchannels();
  ctrls_.reserve(n_sub);
  device_ingress_.resize(n_sub);
  for (std::uint32_t i = 0; i < n_sub; ++i) {
    ctrls_.push_back(std::make_unique<dram::Controller>(
        timing, geometry, 64, 64, scope.sub("dram/ctrl" + obs::idx(i))));
  }
  sub_wake_.assign(n_sub, 0);
  fabric_tx_inflight_.assign(n_sub, 0);
  sub_reads_outstanding_.assign(n_sub, 0);
  out_.reserve(64);
  inflight_.reserve(256);
  free_slots_.reserve(256);
  if (scope.valid()) register_aggregate_probes(scope, *this);
}

std::uint32_t CxlMemory::alloc_slot(std::uint64_t token) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(inflight_.size());
    inflight_.emplace_back();
    slot_token_.emplace_back();
  }
  slot_token_[slot] = token;
  return slot;
}

std::uint32_t CxlMemory::alloc_fmsg(const FabricTxMsg& msg) {
  std::uint32_t m;
  if (!free_fmsgs_.empty()) {
    m = free_fmsgs_.back();
    free_fmsgs_.pop_back();
  } else {
    m = static_cast<std::uint32_t>(fmsg_pool_.size());
    fmsg_pool_.emplace_back();
  }
  fmsg_pool_[m] = msg;
  return m;
}

bool CxlMemory::can_accept(Addr line, bool is_write, Cycle now) const {
  const fabric::Router::Route r = amap_.route(line);
  // A refused device is a sink, never backpressure: access() completes the
  // read poisoned (or loses the write) immediately, so callers that park on
  // can_accept() can never wedge behind a dead device.
  if (dev_refuses(r.device)) return true;
  if (!fabric_->can_send_tx(r.device, now)) return false;
  (void)is_write;
  // In-fabric messages already own an ingress slot so switched deliveries
  // can never overshoot the device-side bound (always zero when direct).
  return device_ingress_[r.sub].size() + fabric_tx_inflight_[r.sub] < kDeviceIngressDepth;
}

void CxlMemory::access(Addr line, bool is_write, Cycle now, std::uint64_t token) {
  const fabric::Router::Route r = amap_.route(line);
  if (dev_refuses(r.device)) {
    if (is_write) {
      ++avail_.lost_writes;
      return;
    }
    // Host-side error response: the root port synthesizes a poisoned
    // completion after the unloaded round-trip — no slot, no fabric
    // traffic, no hang (DESIGN.md §13).
    MemCompletion mc;
    mc.token = token;
    mc.done = now + fixed_read_overhead_;
    mc.cxl_interface = fixed_read_overhead_;
    mc.poisoned = true;
    out_.push_back(mc);
    ++avail_.bounced_reads;
    return;
  }

  DeviceMsg msg;
  msg.local_line = r.local;
  msg.is_write = is_write;
  std::uint32_t bytes = link::kWriteMessageBytes;
  if (is_write) {
    msg.token = 0;
  } else {
    const std::uint32_t slot = alloc_slot(token);
    InflightRead& fl = inflight_[slot];
    fl = InflightRead{};  // Slots are recycled; clear stale RAS state.
    fl.start = now;
    fl.device = r.device;
    fl.sub = r.sub;
    fl.local_line = r.local;
    if (plan_.watchdog()) fl.deadline = now + plan_.timeout_cycles;
    msg.token = slot;
    bytes = link::kReadRequestBytes;
  }
  if (fabric_->direct()) {
    const link::SendResult sr = fabric_->send_tx(r.device, bytes, now, 0);
    msg.arrival = sr.at;
    msg.poisoned = sr.poisoned;
    device_ingress_[r.sub].push_back(msg);
    // The sub-channel must be processed when the message lands on the device.
    sub_wake_[r.sub] = std::min(sub_wake_[r.sub], msg.arrival);
  } else {
    // Park the request while it crosses the switched fabric; the delivery
    // drained in tick() completes the enqueue into the device ingress.
    const std::uint32_t m =
        alloc_fmsg({msg.local_line, msg.token, r.sub, is_write, false});
    fabric_->send_tx(r.device, bytes, now, m);
    ++fabric_tx_inflight_[r.sub];
  }
}

void CxlMemory::finish_read(std::uint32_t slot, Cycle arrival, bool wire_poisoned) {
  InflightRead& info = inflight_[slot];
  const double total = static_cast<double>(arrival - info.start);
  const double dram_internal = static_cast<double>(info.dram_ready - info.dram_enqueue);
  const double fixed = static_cast<double>(fixed_read_overhead_);
  const double cxl_queue = std::max(0.0, total - dram_internal - fixed);
  cxl_interface_sum_ += fixed;
  cxl_queue_sum_ += cxl_queue;
  dram_internal_sum_ += dram_internal;
  ++reads_done_;

  MemCompletion mc;
  mc.token = slot_token_[slot];
  mc.done = arrival;
  mc.dram_service = info.dram_service;
  // Device-side scheduling beyond the unloaded component counts as
  // DRAM queuing; ingress/link/switch waits count as CXL queuing.
  mc.dram_queue = info.dram_queue;
  mc.cxl_interface = fixed_read_overhead_;
  mc.cxl_queue = static_cast<Cycle>(cxl_queue);
  mc.poisoned = wire_poisoned || info.req_poisoned;
  out_.push_back(mc);
  info.deadline = kNoCycle;  // Stop the watchdog; the slot is free again.
  info.dup_pending = false;
  free_slots_.push_back(slot);
}

void CxlMemory::bounce_read(std::uint32_t slot, Cycle done) {
  ++avail_.bounced_reads;
  finish_read(slot, done, /*wire_poisoned=*/true);
}

void CxlMemory::offline_device(std::uint32_t device) {
  if (!avail_on_ || device != plan_.fail_device) return;
  // The evacuation owner is done moving pages; stop parking and drain out.
  if (fail_phase_ == ras::FailureStatus::Phase::kEvacuating) {
    fail_phase_ = ras::FailureStatus::Phase::kDraining;
  }
}

void CxlMemory::fail_onset(Cycle now) {
  using Phase = ras::FailureStatus::Phase;
  const std::uint32_t dev = plan_.fail_device;
  if (plan_.fail_mode == ras::FailureMode::kFailing) {
    fail_phase_ = Phase::kFailing;
    next_health_sample_ = plan_.fail_at_cycle + plan_.health_period_cycles;
    return;
  }
  // Surprise removal: the device vanishes this cycle. Everything queued at
  // its ingress bounces; DRAM work already inside it keeps "draining" but
  // its data can never cross the dead link, so those responses complete
  // poisoned too (the host watchdog path synthesizes the error response).
  fail_phase_ = Phase::kDead;
  hard_dead_ = true;
  for (std::uint32_t sub = dev * subchannels_per_device_;
       sub < (dev + 1) * subchannels_per_device_; ++sub) {
    auto& ingress = device_ingress_[sub];
    while (!ingress.empty()) {
      const DeviceMsg& msg = ingress.front();
      if (msg.is_write) {
        ++avail_.lost_writes;
      } else if (msg.dup) {
        ++ras_dev_.dup_drops;  // The original slot bounces elsewhere.
      } else {
        bounce_read(static_cast<std::uint32_t>(msg.token),
                    std::max(msg.arrival, now));
      }
      ingress.pop_front();
    }
  }
  auto& pending = pending_responses_[dev];
  for (const PendingResponse& p : pending) {
    const std::uint32_t slot = static_cast<std::uint32_t>(p.token);
    InflightRead& info = inflight_[slot];
    info.dram_ready = p.ready;
    info.dram_service = p.dram_service;
    info.dram_queue = p.dram_queue;
    bounce_read(slot, std::max(p.ready, now));
  }
  pending.clear();
  fabric_->set_link_down(dev);
  ++avail_.devices_offlined;
}

Cycle CxlMemory::pump_failure(Cycle now) {
  using Phase = ras::FailureStatus::Phase;
  if (fail_phase_ == Phase::kNone) {
    if (now < plan_.fail_at_cycle) return plan_.fail_at_cycle;
    fail_onset(now);
  }
  Cycle wake = kNoCycle;
  if (fail_phase_ == Phase::kFailing || fail_phase_ == Phase::kEvacuating) {
    // Health monitor: EWMA of the per-window read-error fraction, sampled
    // on a fixed grid so both scheduler modes observe identical windows.
    while (next_health_sample_ <= now) {
      const double frac = win_reads_ == 0 ? 0.0
                                          : static_cast<double>(win_errors_) /
                                                static_cast<double>(win_reads_);
      health_ewma_ = plan_.health_ewma_alpha * frac +
                     (1.0 - plan_.health_ewma_alpha) * health_ewma_;
      win_errors_ = 0;
      win_reads_ = 0;
      ++avail_.health_samples;
      next_health_sample_ += plan_.health_period_cycles;
      if (fail_phase_ == Phase::kFailing &&
          health_ewma_ >= plan_.health_threshold) {
        ++avail_.monitor_trips;
        // With an offline hold the placement layer evacuates first and
        // calls offline_device(); otherwise drain immediately.
        fail_phase_ = offline_hold_ ? Phase::kEvacuating : Phase::kDraining;
      }
    }
    if (fail_phase_ == Phase::kFailing || fail_phase_ == Phase::kEvacuating) {
      wake = std::min(wake, next_health_sample_);
    }
  }
  if (fail_phase_ == Phase::kDraining) {
    // Graceful offline: new work already bounces at access(); once nothing
    // of the device's remains in flight anywhere it goes dead for good.
    const std::uint32_t dev = plan_.fail_device;
    bool idle = pending_responses_[dev].empty();
    for (std::uint32_t sub = dev * subchannels_per_device_;
         idle && sub < (dev + 1) * subchannels_per_device_; ++sub) {
      idle = device_ingress_[sub].empty() && fabric_tx_inflight_[sub] == 0 &&
             sub_reads_outstanding_[sub] == 0;
    }
    if (idle) {
      fail_phase_ = Phase::kDead;
      fabric_->set_link_down(dev);
      ++avail_.devices_offlined;
    } else {
      wake = std::min(wake, now + 1);  // Poll the drain until it empties.
    }
  }
  return wake;
}

Cycle CxlMemory::tick(Cycle now) {
  Cycle wake = kNoCycle;
  if (avail_on_) wake = std::min(wake, pump_failure(now));
  if (!fabric_->direct()) {
    wake = std::min(wake, fabric_->tick(now));
    // Requests that finished crossing the fabric land in the device
    // ingress; responses that reached the host complete their read.
    for (const fabric::Delivery& d : fabric_->tx_deliveries()) {
      const FabricTxMsg& fm = fmsg_pool_[static_cast<std::uint32_t>(d.payload)];
      if (dev_dead(d.device)) {
        // The device died while this request was crossing the fabric:
        // bounce it at the dead link instead of admitting it.
        if (fm.is_write) {
          ++avail_.lost_writes;
        } else if (fm.dup) {
          ++ras_dev_.dup_drops;  // The original slot bounces on its own.
        } else {
          bounce_read(static_cast<std::uint32_t>(fm.token), std::max(d.arrival, now));
        }
        --fabric_tx_inflight_[fm.sub];
        free_fmsgs_.push_back(static_cast<std::uint32_t>(d.payload));
        continue;
      }
      device_ingress_[fm.sub].push_back(
          {d.arrival, fm.local_line, fm.token, fm.is_write, d.poisoned, fm.dup});
      sub_wake_[fm.sub] = std::min(sub_wake_[fm.sub], d.arrival);
      --fabric_tx_inflight_[fm.sub];
      free_fmsgs_.push_back(static_cast<std::uint32_t>(d.payload));
    }
    fabric_->tx_deliveries().clear();
    for (const fabric::Delivery& d : fabric_->rx_deliveries()) {
      finish_read(static_cast<std::uint32_t>(d.payload), d.arrival, d.poisoned);
    }
    fabric_->rx_deliveries().clear();
  }
  for (std::uint32_t sub = 0; sub < subchannels(); ++sub) {
    if (!force_tick_ && sub_wake_[sub] > now) {
      // No ingress arrival and no controller deadline before the cached
      // wake: the sub-channel is inert and produces no completions.
      wake = std::min(wake, sub_wake_[sub]);
      continue;
    }
    dram::Controller& ctrl = *ctrls_[sub];
    auto& ingress = device_ingress_[sub];
    const std::uint32_t dev = sub / subchannels_per_device_;
    const bool dead = dev_dead(dev);
    if (dead) {
      // Defensive drain: the onset sweep and delivery bounce should leave a
      // dead device's ingress empty, but anything that slips through bounces
      // here rather than wedging the sub-channel.
      while (!ingress.empty()) {
        const DeviceMsg& msg = ingress.front();
        if (msg.is_write) {
          ++avail_.lost_writes;
        } else if (msg.dup) {
          ++ras_dev_.dup_drops;
        } else {
          bounce_read(static_cast<std::uint32_t>(msg.token),
                      std::max(msg.arrival, now));
        }
        ingress.pop_front();
      }
    }
    // A stalled device freezes its ingress entirely (no admissions, no
    // duplicate drops) — a pure function of `now`, so both scheduler modes
    // agree; in-flight DRAM work keeps progressing.
    const bool stalled = !dead && plan_.in_stall(now, dev);
    // Admit delivered messages into the DRAM controller in FIFO order.
    while (!stalled && !ingress.empty() && ingress.front().arrival <= now) {
      const DeviceMsg& msg = ingress.front();
      if (msg.dup) {
        // Watchdog duplicate: the original still owns the inflight slot and
        // the DRAM request; absorb the duplicate here so nothing is ever
        // serviced twice.
        ++ras_dev_.dup_drops;
        ingress.pop_front();
        continue;
      }
      if (!ctrl.can_accept(msg.is_write)) break;
      if (!msg.is_write) {
        inflight_[msg.token].device_arrival = msg.arrival;
        inflight_[msg.token].dram_enqueue = now;
        // A poisoned request still reads DRAM; the response carries poison.
        if (msg.poisoned) inflight_[msg.token].req_poisoned = true;
        if (dev_failing(dev)) {
          // A failing device corrupts reads at an escalating rate; errors
          // surface as poisoned responses and feed the health monitor.
          ++win_reads_;
          if (ras::draw_unit(fail_stream_, fail_draws_++) <
              plan_.fail_error_rate_at(now)) {
            inflight_[msg.token].req_poisoned = true;
            ++win_errors_;
            ++avail_.fail_errors;
          }
        }
        ++sub_reads_outstanding_[sub];
      } else if (msg.poisoned) {
        ++ras_dev_.poisoned_writes;
      }
      ctrl.enqueue(msg.local_line, msg.is_write, now, msg.token);
      ingress.pop_front();
    }
    const Cycle ctrl_wake = ctrl.tick(now);
    Cycle sw = ctrl_wake;
    if (!ingress.empty()) {
      // A blocked-but-arrived head retries when the controller next acts
      // (queue slots free only on CAS issue); a future head at its arrival;
      // a stall-blocked head when the stall window closes.
      const Cycle arrival = ingress.front().arrival;
      if (arrival > now) {
        sw = std::min(sw, arrival);
      } else if (stalled) {
        sw = std::min(sw, plan_.stall_end(now, dev));
      }
    }
    sub_wake_[sub] = sw;
    wake = std::min(wake, sw);

    auto& done = ctrl.completions();
    for (const auto& comp : done) {
      pending_responses_[dev].push_back(
          {comp.done, comp.token, comp.service, comp.queue_delay});
      --sub_reads_outstanding_[sub];  // Controllers only complete reads.
    }
    done.clear();
  }

  // Ship ready responses back into each device's return path.
  for (std::uint32_t dev = 0; dev < n_devices_; ++dev) {
    auto& pending = pending_responses_[dev];
    if (dev_dead(dev)) {
      // Data that finished inside a dead device can never cross the downed
      // link: complete the reads poisoned instead (exactly-once, host-side).
      for (const PendingResponse& p : pending) {
        const std::uint32_t slot = static_cast<std::uint32_t>(p.token);
        InflightRead& info = inflight_[slot];
        info.dram_ready = p.ready;
        info.dram_service = p.dram_service;
        info.dram_queue = p.dram_queue;
        bounce_read(slot, std::max(p.ready, now));
      }
      pending.clear();
      continue;
    }
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].ready > now || !fabric_->can_send_rx(dev, now)) {
        ++i;
        continue;
      }
      const std::uint32_t slot = static_cast<std::uint32_t>(pending[i].token);
      InflightRead& info = inflight_[slot];
      info.dram_ready = pending[i].ready;
      info.dram_service = pending[i].dram_service;
      info.dram_queue = pending[i].dram_queue;
      const link::SendResult sr =
          fabric_->send_rx(dev, link::kReadResponseBytes, now, slot);
      // Direct links deliver analytically at send time; switched responses
      // finish when the fabric drains them at the host.
      if (sr.at != kNoCycle) finish_read(slot, sr.at, sr.poisoned);
      pending[i] = pending.back();
      pending.pop_back();
    }
    // Responses still parked: wake at their ready cycle, or — if ready but
    // the return path is out of credit — at the cycle the credit frees
    // (exact for direct links: rx_busy_until_ only moves on sends, which
    // happen in this loop; conservative next-cycle retry through switches).
    for (const PendingResponse& p : pending) {
      const Cycle at = p.ready > now ? p.ready : fabric_->rx_credit_cycle(dev, now);
      wake = std::min(wake, std::max(at, now + 1));
    }
  }
  if (plan_.watchdog()) wake = std::min(wake, pump_watchdog(now));
  // Responses and watchdog reissues sent above entered a switch plane after
  // it ticked, so its returned bound does not cover them: bound the planes
  // again once every phase has run (DESIGN.md §6 idle-tick contract).
  if (!fabric_->direct()) {
    wake = std::min(wake, std::max(fabric_->earliest_head(), now + 1));
  }
  return wake;
}

Cycle CxlMemory::pump_watchdog(Cycle now) {
  Cycle wake = kNoCycle;
  for (std::uint32_t slot = 0; slot < inflight_.size(); ++slot) {
    InflightRead& fl = inflight_[slot];
    if (fl.deadline == kNoCycle) continue;  // Free slot or watchdog retired.
    if (!fl.dup_pending && fl.deadline > now) {
      wake = std::min(wake, fl.deadline);
      continue;
    }
    if (!fl.dup_pending) {
      fl.dup_pending = true;
      ++ras_dev_.timeouts;
    }
    // Reissue a duplicate request when the tx plane and the device ingress
    // have room; otherwise retry next cycle. Duplicates cost request
    // bandwidth and an ingress slot but are dropped at admission, so the
    // original (which is never cancelled) stays the only serviced copy.
    const bool room = device_ingress_[fl.sub].size() + fabric_tx_inflight_[fl.sub] <
                      kDeviceIngressDepth;
    if (!room || !fabric_->can_send_tx(fl.device, now)) {
      wake = std::min(wake, now + 1);
      continue;
    }
    if (fabric_->direct()) {
      const link::SendResult sr =
          fabric_->send_tx(fl.device, link::kReadRequestBytes, now, 0);
      device_ingress_[fl.sub].push_back(
          {sr.at, fl.local_line, slot, false, sr.poisoned, true});
      sub_wake_[fl.sub] = std::min(sub_wake_[fl.sub], sr.at);
    } else {
      const std::uint32_t m = alloc_fmsg({fl.local_line, slot, fl.sub, false, true});
      fabric_->send_tx(fl.device, link::kReadRequestBytes, now, m);
      ++fabric_tx_inflight_[fl.sub];
    }
    ++ras_dev_.backoff_retries;
    fl.dup_pending = false;
    ++fl.reissues;
    if (fl.reissues >= plan_.max_reissues) {
      fl.deadline = kNoCycle;  // Budget spent: trust the original to land.
      continue;
    }
    // Exponential backoff, capped: timeout * 2^reissues (saturating).
    Cycle backoff = plan_.backoff_cap_cycles;
    if (fl.reissues < 63) {
      const Cycle scaled = plan_.timeout_cycles << fl.reissues;
      if ((scaled >> fl.reissues) == plan_.timeout_cycles && scaled < backoff) {
        backoff = scaled;
      }
    }
    fl.deadline = now + backoff;
    wake = std::min(wake, fl.deadline);
  }
  return wake;
}

MemorySnapshot CxlMemory::snapshot() const {
  MemorySnapshot s;
  const dram::ControllerStats agg = aggregate_dram_stats();
  s.reads = agg.reads_done + agg.reads_forwarded;
  s.writes = agg.writes_done;
  s.dram_service_sum = agg.read_service_sum;
  s.dram_queue_sum = agg.read_queue_delay_sum;
  s.cxl_interface_sum = cxl_interface_sum_;
  s.cxl_queue_sum = cxl_queue_sum_;
  s.data_bus_busy = static_cast<double>(agg.data_bus_busy_cycles);
  s.subchannels = subchannels();
  s.peak_gbps = peak_gbps();
  s.row_hit_rate = agg.row_hit_rate();
  return s;
}

void CxlMemory::reset_stats() {
  for (auto& c : ctrls_) c->reset_stats();
  fabric_->reset_stats();
  // avail_ is intentionally NOT reset: the failure-lifecycle counters are
  // lifetime quantities whose conservation invariants (e.g. evac_pages_out
  // == evac_pages_in + pages_retired) must hold across warmup resets.
  ras_dev_ = {};
  cxl_interface_sum_ = 0;
  cxl_queue_sum_ = 0;
  dram_internal_sum_ = 0;
  reads_done_ = 0;
}

dram::ControllerStats CxlMemory::aggregate_dram_stats() const {
  dram::ControllerStats agg;
  for (const auto& c : ctrls_) accumulate(agg, c->stats());
  return agg;
}

ras::RasCounters CxlMemory::ras_counters() const {
  ras::RasCounters c = fabric_->ras_counters();
  c += ras_dev_;
  return c;
}

}  // namespace coaxial::mem
