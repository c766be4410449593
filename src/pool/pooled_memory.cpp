#include "pool/pooled_memory.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "link/lane_config.hpp"

namespace coaxial::pool {

namespace {

/// Per (sub-channel, host) ingress bound, mirroring CxlMemory's device
/// ingress depth. Hosts enforce it for pooled subs with credits.
constexpr std::uint32_t kIngressDepth = 64;

/// parked_at_ value of a head the directory has not blocked.
constexpr std::uint64_t kNotParked = ~std::uint64_t{0};

/// A head message's fabric payload, index << 2 | flag << 1 | control:
/// `control` marks an invalidation ack (down) or an invalidation (up),
/// `flag` is dirty (a response's request-side poison), and `index` a
/// transaction id, a read slot, or a demand's host-side entry.
std::uint64_t wire(bool control, bool flag, std::uint32_t index) {
  return (std::uint64_t{index} << 2) | (std::uint64_t{flag} << 1) | control;
}
std::uint32_t wire_index(std::uint64_t p) { return static_cast<std::uint32_t>(p >> 2); }
bool wire_flag(std::uint64_t p) { return (p & 2) != 0; }
bool wire_control(std::uint64_t p) { return (p & 1) != 0; }

/// Credits whose return has reached their holder by `now` become usable;
/// the rest fold their cycle into `wake`.
template <class Credit>
void mature_credits(std::vector<Credit>& pending, std::vector<std::uint64_t>& credits,
                    Cycle now, Cycle& wake) {
  if (pending.empty()) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const Credit c = pending[i];
    if (c.at > now) {
      pending[kept++] = c;
      wake = std::min(wake, c.at);
      continue;
    }
    ++credits[c.sub];
  }
  pending.resize(kept);
}

/// The lookahead guard: mail delivered at a barrier must not take effect
/// before it, or a shard already simulated past the message's cycle.
void check_on_time(const char* box, std::uint32_t host, Cycle at, Cycle barrier) {
  if (at >= barrier) return;
  throw std::logic_error("pool::PooledMemory: " + std::string(box) +
                         " mail of host " + std::to_string(host) +
                         " takes effect at cycle " + std::to_string(at) +
                         ", before the barrier at cycle " +
                         std::to_string(barrier) +
                         " (the quantum exceeds the cross-shard latency floor)");
}

placement::TierConfig shared_window_decode(const PoolConfig& cfg) {
  placement::TierConfig tc;
  tc.enabled = true;
  tc.policy = placement::PolicyKind::kStaticInterleave;
  tc.page_lines = cfg.page_lines;
  tc.fast_capacity_pages = cfg.shared_pages;
  tc.hdm_fast_ranges = {
      {kPoolSharedBaseLine, cfg.shared_pages * cfg.page_lines}};
  return tc;
}

fabric::FabricConfig head_fabric(const PoolConfig& cfg) {
  fabric::FabricConfig fc;
  fc.kind = cfg.fabric_kind;
  fc.devices = cfg.shared_devices + cfg.private_devices;
  // Direct fabrics pair one root port per device; switched heads default to
  // two root ports in front of the switch (the coaxial_switched shape).
  fc.host_links = cfg.host_links != 0
                      ? cfg.host_links
                      : (fc.switched() ? 2u : 0u);
  fc.switch_port_ns = cfg.switch_port_ns;
  return fc;
}

}  // namespace

PooledMemory::PooledMemory(const PoolConfig& cfg, obs::Scope scope)
    : cfg_(cfg),
      n_hosts_(cfg.n_hosts),
      spd_(cfg.subchannels_per_device()),
      s_devs_(cfg.shared_devices),
      p_devs_(cfg.private_devices),
      s_subs_(cfg.shared_devices * cfg.subchannels_per_device()),
      p_subs_(cfg.private_devices * cfg.subchannels_per_device()),
      shared_map_(placement::AddressMap::passthrough(
          fabric::Interleave::kPage, cfg.shared_devices,
          cfg.subchannels_per_device(), cfg.page_lines, 1ull << 24)),
      private_map_(placement::AddressMap::passthrough(
          fabric::Interleave::kLine, cfg.private_devices,
          cfg.subchannels_per_device(), cfg.page_lines, 1ull << 24)) {
  cfg_.validate();
  if (!cfg_.enabled()) {
    throw std::invalid_argument("pool::PooledMemory: n_hosts == 0");
  }
  // Stage-2 decodes may never reach past their device class.
  shared_map_.set_device_bound(s_devs_);
  private_map_.set_device_bound(p_devs_);

  // Stage 1: every host programs the same HDM layout, but owns its own
  // decoder instance (per-host map state, like per-host HDM registers).
  const placement::TierConfig tc = shared_window_decode(cfg_);
  stage1_.reserve(n_hosts_);
  for (std::uint32_t h = 0; h < n_hosts_; ++h) {
    stage1_.push_back(placement::AddressMap::tiered(tc));
  }

  const fabric::FabricConfig fc = head_fabric(cfg_);
  const link::LaneConfig lanes = cfg_.asym_lanes
                                     ? link::LaneConfig::x8_asym(cfg_.cxl_port_ns)
                                     : link::LaneConfig::x8(cfg_.cxl_port_ns);
  fab_.reserve(n_hosts_);
  for (std::uint32_t h = 0; h < n_hosts_; ++h) {
    fab_.push_back(std::make_unique<fabric::Fabric>(
        fc, s_devs_ + p_devs_, lanes, scope.sub("host/" + obs::idx(h))));
  }

  shared_ctrls_.reserve(s_subs_);
  for (std::uint32_t s = 0; s < s_subs_; ++s) {
    shared_ctrls_.push_back(std::make_unique<dram::Controller>(
        cfg_.dram_timing, cfg_.dram_geometry, 64, 64,
        scope.sub("pooled/dram/ctrl" + obs::idx(s))));
  }
  priv_ctrls_.resize(n_hosts_);
  for (std::uint32_t h = 0; h < n_hosts_; ++h) {
    priv_ctrls_[h].reserve(p_subs_);
    for (std::uint32_t s = 0; s < p_subs_; ++s) {
      priv_ctrls_[h].push_back(std::make_unique<dram::Controller>(
          cfg_.dram_timing, cfg_.dram_geometry, 64, 64,
          scope.sub("host/" + obs::idx(h) + "/dram/ctrl" + obs::idx(s))));
    }
  }

  dirs_.reserve(s_devs_);
  for (std::uint32_t d = 0; d < s_devs_; ++d) {
    dirs_.push_back(std::make_unique<Directory>(cfg_.directory_entries, n_hosts_));
  }

  // Fault injection (DESIGN.md §§11, 13): CRC noise arms every host head's
  // fabric; a planned surprise removal targets one shared device. The
  // refused-read bounce costs one unloaded round trip — the host port
  // discovers the dead link and synthesises the error response.
  if (cfg_.fault_plan.enabled()) {
    for (auto& f : fab_) f->arm_faults(cfg_.fault_plan);
  }
  avail_on_ = cfg_.fault_plan.device_failure();
  if (avail_on_) {
    fail_dev_ = cfg_.fault_plan.fail_device;
    fail_at_ = cfg_.fault_plan.fail_at_cycle;
    bounce_cycles_ = fab_[0]->unloaded_tx_cycles(link::kReadRequestBytes) +
                     fab_[0]->unloaded_rx_cycles(link::kReadResponseBytes);
  }
  // Engine timing constants (every head has the same shape).
  credit_lat_ = fab_[0]->unloaded_rx_cycles(link::kReadRequestBytes);
  port_credit_lat_ = fab_[0]->unloaded_device_hop_cycles(link::kReadRequestBytes);
  bounce_rx_lat_ = fab_[0]->unloaded_rx_cycles(link::kReadResponseBytes);

  shared_ingress_.assign(s_subs_, std::vector<std::deque<DeviceMsg>>(n_hosts_));
  priv_ingress_.assign(n_hosts_, std::vector<std::deque<DeviceMsg>>(p_subs_));
  shared_wake_.assign(s_subs_, 0);
  parked_at_.assign(s_subs_, std::vector<std::uint64_t>(n_hosts_, kNotParked));
  priv_wake_.assign(n_hosts_, std::vector<Cycle>(p_subs_, 0));
  tx_inflight_priv_.assign(n_hosts_, std::vector<std::uint32_t>(p_subs_, 0));
  down_msgs_.resize(n_hosts_);
  down_free_.resize(n_hosts_);

  inflight_.resize(n_hosts_);
  free_slots_.resize(n_hosts_);
  pending_rx_.resize(n_hosts_);
  pending_rx_priv_.resize(n_hosts_);
  pending_rx_ready_.assign(n_hosts_, kNoCycle);
  pending_rx_priv_ready_.assign(n_hosts_, kNoCycle);
  out_.resize(n_hosts_);
  inflight_reads_.assign(n_hosts_, 0);
  host_invals_.resize(n_hosts_);
  txns_per_dev_.assign(s_devs_, 0);

  mail_demand_.resize(n_hosts_);
  mail_ack_.resize(n_hosts_);
  mail_port_credit_.resize(n_hosts_);
  mail_up_.resize(n_hosts_);
  mail_comp_.resize(n_hosts_);
  mail_credit_.resize(n_hosts_);
  pending_credits_.resize(n_hosts_);
  credits_.assign(n_hosts_, std::vector<std::uint64_t>(s_subs_, kIngressDepth));
  port_credits_.assign(n_hosts_ * s_devs_, fab_[0]->landing_depth());

  avail_host_.resize(n_hosts_);
  host_shared_ctr_.resize(n_hosts_);
  host_priv_ctr_.resize(n_hosts_);
  host_ack_ctr_.resize(n_hosts_);
}

Cycle PooledMemory::min_cross_shard_latency() const {
  // Every cross-shard message crosses a device segment (or, for a credit
  // or a bounce, is stamped with at least one); latency is monotone in
  // bytes, so the smallest message bounds every message from below.
  Cycle q = kNoCycle;
  for (const auto& f : fab_) {
    q = std::min(q, f->unloaded_device_hop_cycles(link::kReadRequestBytes));
  }
  return std::max<Cycle>(q, 1);
}

std::uint32_t PooledMemory::alloc_slot(std::uint32_t host, std::uint64_t token,
                                       Cycle now) {
  auto& fl = inflight_[host];
  auto& free = free_slots_[host];
  std::uint32_t slot;
  if (!free.empty()) {
    slot = free.back();
    free.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(fl.size());
    fl.emplace_back();
  }
  fl[slot] = {token, now, true};
  ++inflight_reads_[host];
  return slot;
}

void PooledMemory::finish_read(std::uint32_t host, std::uint32_t slot,
                               Cycle arrival, bool poisoned) {
  InflightRead& fl = inflight_[host][slot];
  assert(fl.busy);
  out_[host].push_back({fl.token, arrival, poisoned});
  fl.busy = false;
  free_slots_[host].push_back(slot);
  --inflight_reads_[host];
}

std::uint32_t PooledMemory::alloc_txn() {
  if (!free_txns_.empty()) {
    const std::uint32_t t = free_txns_.back();
    free_txns_.pop_back();
    return t;
  }
  txns_.emplace_back();
  return static_cast<std::uint32_t>(txns_.size() - 1);
}

std::uint32_t PooledMemory::park_down(std::uint32_t host, const DemandMail& dm) {
  auto& msgs = down_msgs_[host];
  auto& free = down_free_[host];
  std::uint32_t m;
  if (!free.empty()) {
    m = free.back();
    free.pop_back();
  } else {
    m = static_cast<std::uint32_t>(msgs.size());
    msgs.emplace_back();
  }
  msgs[m] = dm;
  return m;
}

void PooledMemory::take_down(std::uint32_t host) {
  auto& delivered = fab_[host]->tx_deliveries();
  for (const fabric::Delivery& d : delivered) {
    const std::uint32_t index = wire_index(d.payload);
    if (wire_control(d.payload)) {
      mail_ack_[host].push_back({d.arrival, index, wire_flag(d.payload)});
      continue;
    }
    DemandMail dm = down_msgs_[host][index];
    down_free_[host].push_back(index);
    dm.msg.arrival = d.arrival;
    dm.msg.poisoned = d.poisoned;
    if (d.device < s_devs_) {
      // Cross-shard: the pooled ingress belongs to the pool shard, and the
      // arrival lies at least a quantum past the forward (or send) that
      // produced it, so barrier delivery is never late.
      mail_demand_[host].push_back(dm);
    } else {
      priv_ingress_[host][dm.sub].push_back(dm.msg);
      priv_wake_[host][dm.sub] = std::min(priv_wake_[host][dm.sub], d.arrival);
      --tx_inflight_priv_[host][dm.sub];
    }
  }
  delivered.clear();
}

void PooledMemory::take_up(std::uint32_t host) {
  auto& delivered = fab_[host]->rx_deliveries();
  for (const fabric::Delivery& d : delivered) {
    const std::uint32_t index = wire_index(d.payload);
    const bool flag = wire_flag(d.payload);
    if (wire_control(d.payload)) {
      host_invals_[host].push_back({d.arrival, index, d.device, flag});
    } else {
      finish_read(host, index, d.arrival, flag || d.poisoned);
    }
  }
  delivered.clear();
}

bool PooledMemory::can_ship(std::uint32_t host, std::uint32_t sdev,
                            Cycle now) const {
  return port_credits_[host * s_devs_ + sdev] != 0 &&
         fab_[host]->can_inject_rx(sdev, now);
}

void PooledMemory::ship_up(std::uint32_t host, std::uint32_t sdev,
                           std::uint32_t bytes, Cycle now,
                           std::uint64_t payload) {
  const link::SendResult sr = fab_[host]->inject_rx(sdev, bytes, now);
  --port_credits_[host * s_devs_ + sdev];
  mail_up_[host].push_back({sr.at, sdev, bytes, payload, sr.poisoned});
}

bool PooledMemory::can_accept(std::uint32_t host, Addr line, bool is_write,
                              Cycle now) const {
  (void)is_write;
  const placement::Translation t = stage1_[host].translate(line);
  if (t.tier == 0) {
    const fabric::Router::Route r = shared_map_.route(t.local_line);
    // A dead device is a sink: accept so access() can refuse the
    // transaction with an immediate poison bounce instead of wedging the
    // issuing host behind a credit that will never return. Hosts test
    // death with host_sees_dead() — identical to reading dead_ here (the
    // flip happens inside the pool pump after the hosts stepped fail_at_),
    // but free of any cross-shard read.
    if (host_sees_dead(now) && r.device == fail_dev_) return true;
    return credits_[host][r.sub] != 0 && fab_[host]->can_send_tx(r.device, now);
  }
  const fabric::Router::Route r = private_map_.route(t.local_line);
  if (!fab_[host]->can_send_tx(s_devs_ + r.device, now)) return false;
  return priv_ingress_[host][r.sub].size() + tx_inflight_priv_[host][r.sub] <
         kIngressDepth;
}

void PooledMemory::access(std::uint32_t host, Addr line, bool is_write, Cycle now,
                          std::uint64_t token) {
  const placement::Translation t = stage1_[host].translate(line);
  const bool shared = t.tier == 0;
  const fabric::Router::Route r =
      shared ? shared_map_.route(t.local_line) : private_map_.route(t.local_line);
  const std::uint32_t fab_dev = shared ? r.device : s_devs_ + r.device;

  if (shared && host_sees_dead(now) && r.device == fail_dev_) {
    // Refused transaction to a retired range: reads synthesise a poison
    // response after an unloaded round trip, writes are lost. Host-local
    // (no pool state touched), so the counters live in the host's half.
    ++avail_host_[host].refused_txns;
    if (is_write) {
      ++avail_host_[host].lost_writes;
    } else {
      ++avail_host_[host].bounced_reads;
      out_[host].push_back({token, now + bounce_cycles_, true});
    }
    return;
  }

  DeviceMsg msg;
  msg.local_line = r.local;
  msg.is_write = is_write;
  msg.page = shared ? t.local_line / cfg_.page_lines : 0;
  std::uint32_t bytes = link::kWriteMessageBytes;
  if (!is_write) {
    msg.token = alloc_slot(host, token, now);
    bytes = link::kReadRequestBytes;
  }

  if (shared) {
    // The send consumes a flow-control credit for the pool-owned ingress;
    // the pool returns it when it pops the message.
    assert(credits_[host][r.sub] > 0);
    --credits_[host][r.sub];
  } else {
    ++tx_inflight_priv_[host][r.sub];
  }
  fab_[host]->post_tx(fab_dev, bytes, now,
                      wire(false, false, park_down(host, {msg, r.sub})));
  take_down(host);
}

bool PooledMemory::start_txn(const Directory::Decision& d, const DeviceMsg& msg,
                             std::uint32_t host, std::uint32_t shared_sub,
                             Cycle now) {
  const std::uint32_t t = alloc_txn();
  CohTxn& x = txns_[t];
  x = CohTxn{};
  x.live = true;
  x.sdev = shared_sub / spd_;
  x.page = msg.page;
  x.send_clean = d.clean_mask;
  x.send_dirty = d.dirty_mask;
  x.acks_pending = std::popcount(d.clean_mask | d.dirty_mask);
  x.parked = msg;
  x.park_host = host;
  x.park_sub = shared_sub;
  if (d.dirty_mask != 0) {
    if (d.evicted) {
      // Victim recall: its line 0 stands in for the page's dirty data.
      const fabric::Router::Route wr =
          shared_map_.route(d.evicted_page * cfg_.page_lines);
      x.wb_sub = wr.sub;
      x.wb_line = wr.local;
    } else {
      x.wb_sub = shared_sub;
      x.wb_line = msg.local_line;
    }
  }
  ++ctr_.txns;
  ++txns_per_dev_[x.sdev];
  ++live_txns_;
  return pump_txn_sends(t, now);
}

bool PooledMemory::pump_txn_sends(std::uint32_t t, Cycle now) {
  CohTxn& x = txns_[t];
  for (std::uint32_t h = 0; h < n_hosts_ && (x.send_clean | x.send_dirty) != 0;
       ++h) {
    const std::uint64_t bit = std::uint64_t{1} << h;
    const bool dirty = (x.send_dirty & bit) != 0;
    if (!dirty && (x.send_clean & bit) == 0) continue;
    // The invalidation rides the target host's return path from the pooled
    // device — the same pipe as its read responses, so invalidation latency
    // is load- and topology-dependent.
    if (!can_ship(h, x.sdev, now)) continue;
    ship_up(h, x.sdev, link::kReadRequestBytes, now, wire(true, dirty, t));
    ++ctr_.invals_sent;
    if (dirty) {
      x.send_dirty &= ~bit;
    } else {
      x.send_clean &= ~bit;
    }
  }
  return (x.send_clean | x.send_dirty) != 0;
}

void PooledMemory::admit_shared(dram::Controller& ctrl, const DeviceMsg& msg,
                                std::uint32_t host, Cycle now) {
  if (msg.is_write) {
    ctrl.enqueue(msg.local_line, true, now, 0);
    ++ctr_.shared_writes;
    ++host_shared_ctr_[host].writes;
  } else {
    // Request-side poison rides the DRAM token (bit 63) so the pool shard
    // never writes into the host-owned read-slot table.
    ctrl.enqueue(msg.local_line, false, now,
                 pack_token(msg.poisoned, host, msg.token));
    ++ctr_.shared_reads;
    ++host_shared_ctr_[host].reads;
  }
  ++host_shared_ctr_[host].shared;
}

Cycle PooledMemory::pool_tick(Cycle now) {
  Cycle wake = kNoCycle;
  mature_credits(pending_port_credits_, port_credits_, now, wake);
  if (avail_on_) wake = std::min(wake, pump_pool_failure(now));

  // -- Phase B: acks arriving at pooled devices retire invalidations. -----
  {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < dev_acks_.size(); ++i) {
      const DevAck a = dev_acks_[i];
      if (a.arrival > now) {
        dev_acks_[kept++] = a;
        continue;
      }
      CohTxn& x = txns_[a.txn];
      assert(x.live && x.acks_pending > 0);
      --x.acks_pending;
      ++ctr_.invals_acked;
      if (a.dirty) {
        if (dead_ && x.sdev == fail_dev_) {
          // The recalled data's backing store died while the recall was in
          // flight: the dirty page is lost, not written back.
          ++avail_.lost_dirty_pages;
        } else {
          // The recalled line's data came back with the ack; it still has
          // to be written into device DRAM (drained in the sub-channel
          // pass).
          pending_wbs_.push_back({x.wb_sub, x.wb_line});
          shared_wake_[x.wb_sub] = std::min(shared_wake_[x.wb_sub], now);
        }
      }
    }
    dev_acks_.resize(kept);
  }

  // -- Phase C: transactions send remaining invals; completed ones admit
  //    their parked access (in transaction-id order, deterministically).
  //    Only a transaction with an invalidation left to send, or with every
  //    ack in but a full controller, retries next cycle; one waiting on
  //    acks sleeps, because every ack's delivery arms its own wake (the
  //    dev_acks_ bound below, or the barrier mail that carried it). ------
  bool txn_retry = false;
  for (std::uint32_t t = 0; t < txns_.size(); ++t) {
    CohTxn& x = txns_[t];
    if (!x.live) continue;
    if (pump_txn_sends(t, now)) {
      txn_retry = true;
      continue;
    }
    if (x.acks_pending != 0) continue;
    if (dead_ && x.sdev == fail_dev_) {
      // The device died under this transaction: its directory entry is
      // gone (fail_reset — no unlock) and the parked access has nowhere
      // to go. Recovery rounds park nothing.
      if (!x.recovery) bounce_msg(x.park_host, x.parked, now);
      x.live = false;
      --txns_per_dev_[x.sdev];
      --live_txns_;
      free_txns_.push_back(t);
      continue;
    }
    dram::Controller& ctrl = *shared_ctrls_[x.park_sub];
    if (!ctrl.can_accept(x.parked.is_write)) {
      txn_retry = true;
      continue;
    }
    admit_shared(ctrl, x.parked, x.park_host, now);
    dirs_[x.sdev]->unlock(x.page);
    // The unlock moved the device's epoch: wake its sub-channels (the
    // parked access's among them) so Phase D re-presents parked heads in
    // this same tick, exactly when the per-cycle retry would have.
    for (std::uint32_t sub = x.sdev * spd_; sub < (x.sdev + 1) * spd_; ++sub) {
      shared_wake_[sub] = std::min(shared_wake_[sub], now);
    }
    x.live = false;
    --txns_per_dev_[x.sdev];
    --live_txns_;
    free_txns_.push_back(t);
  }

  // -- Phase D: pooled sub-channels — recall writebacks, merged admission
  //    through the directory, DRAM tick, completions. ---------------------
  for (std::uint32_t sub = 0; sub < s_subs_; ++sub) {
    if (!force_tick_ && shared_wake_[sub] > now) {
      wake = std::min(wake, shared_wake_[sub]);
      continue;
    }
    dram::Controller& ctrl = *shared_ctrls_[sub];
    const std::uint32_t dev = sub / spd_;
    Directory& dir = *dirs_[dev];
    std::vector<std::uint64_t>& parked_at = parked_at_[sub];
    bool wb_waiting = false;
    {
      // Recall data takes priority over new admissions, FIFO per sub.
      std::size_t kept = 0;
      bool blocked = false;
      for (std::size_t i = 0; i < pending_wbs_.size(); ++i) {
        const PendingWb w = pending_wbs_[i];
        if (w.sub != sub || blocked || !ctrl.can_accept(true)) {
          blocked = blocked || (w.sub == sub);
          wb_waiting = wb_waiting || (w.sub == sub);
          pending_wbs_[kept++] = w;
          continue;
        }
        ctrl.enqueue(w.local_line, true, now, 0);
        ++ctr_.recall_writebacks;
      }
      pending_wbs_.resize(kept);
    }

    std::uint64_t skipped = 0;
    while (true) {
      // Earliest-arrival-first merge across the per-host queues; host index
      // breaks ties, so inter-host ordering is deterministic.
      std::uint32_t best = n_hosts_;
      Cycle best_at = kNoCycle;
      for (std::uint32_t h = 0; h < n_hosts_; ++h) {
        if ((skipped >> h) & 1) continue;
        const auto& q = shared_ingress_[sub][h];
        if (q.empty() || q.front().arrival > now) continue;
        if (q.front().arrival < best_at) {
          best_at = q.front().arrival;
          best = h;
        }
      }
      if (best == n_hosts_) break;
      auto& q = shared_ingress_[sub][best];
      const DeviceMsg msg = q.front();
      if (!ctrl.can_accept(msg.is_write)) break;
      // A decision that needs a transaction must be able to start one; gate
      // before access() because the directory transitions state eagerly.
      if (txns_per_dev_[dev] >= cfg_.directory_max_txns) break;
      // A parked head would be blocked again (Directory::unlock_epoch), so
      // it is skipped without asking — at the very point access() ran.
      if (parked_at[best] == dir.unlock_epoch()) {
        skipped |= std::uint64_t{1} << best;
        continue;
      }
      const Directory::Decision dd = dir.access(msg.page, best, msg.is_write);
      if (dd.blocked) {
        // Same-page txn in flight, or every entry locked: park the head.
        parked_at[best] = dir.unlock_epoch();
        skipped |= std::uint64_t{1} << best;
        continue;
      }
      if (dd.evicted) ++ctr_.dir_evictions;
      if (dd.upgrade_silent) ++ctr_.upgrades_silent;
      if (dd.pingpong) ++ctr_.pingpong_transitions;
      ctr_.recalls_dirty += std::popcount(dd.dirty_mask);
      q.pop_front();
      // The pop frees the host's flow-control credit; the return rides the
      // unloaded control latency of the response path.
      mail_credit_[best].push_back({now + credit_lat_, sub});
      if (dd.needs_txn) {
        txn_retry = start_txn(dd, msg, best, sub, now) || txn_retry;
        continue;
      }
      admit_shared(ctrl, msg, best, now);
    }

    Cycle sw = ctrl.tick(now);
    const std::uint64_t epoch = dir.unlock_epoch();
    for (std::uint32_t h = 0; h < n_hosts_; ++h) {
      const auto& q = shared_ingress_[sub][h];
      if (q.empty()) continue;
      // Future head wakes at its arrival; an arrived head blocked by the
      // controller or the txn-table gate retries next cycle. A parked head
      // arms nothing: the unlock that frees it wakes this sub (Phase C).
      if (q.front().arrival > now) {
        sw = std::min(sw, q.front().arrival);
      } else if (parked_at[h] != epoch) {
        sw = std::min(sw, now + 1);
      }
    }
    if (wb_waiting) sw = std::min(sw, now + 1);
    shared_wake_[sub] = sw;
    wake = std::min(wake, sw);

    auto& done = ctrl.completions();
    for (const auto& comp : done) {
      const std::uint32_t h =
          static_cast<std::uint32_t>(comp.token >> 32) & 0x7fffffffu;
      pending_rx_[h].push_back(
          {comp.done, dev, static_cast<std::uint32_t>(comp.token & 0xffffffffu),
           (comp.token >> 63) != 0});
      pending_rx_ready_[h] = std::min(pending_rx_ready_[h], comp.done);
    }
    done.clear();
  }

  // -- Phase F (shared half): ship pooled responses up every return path. -
  for (std::uint32_t h = 0; h < n_hosts_; ++h) {
    wake = std::min(wake, ship_shared_responses(h, now));
  }

  // -- Wake assembly for the remaining coherence state. -------------------
  if (txn_retry || !pending_wbs_.empty()) wake = std::min(wake, now + 1);
  for (const DevAck& a : dev_acks_) {
    wake = std::min(wake, std::max(a.arrival, now + 1));
  }
  return wake;
}

Cycle PooledMemory::ship_shared_responses(std::uint32_t host, Cycle now) {
  // Nothing parked is ready (and no device is dead, whose responses bounce
  // whether ready or not): the pass below would keep every entry in place
  // and return exactly the earliest ready cycle.
  if (!force_tick_ && !dead_ && pending_rx_ready_[host] > now) {
    return pending_rx_ready_[host];
  }
  Cycle wake = kNoCycle;
  auto& pending = pending_rx_[host];
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const PendingResponse p = pending[i];
    if (dead_ && p.device == fail_dev_) {
      // The data was read before the device died, but its return link is
      // gone: the host port times out and synthesises a poison response,
      // paying the synthesised response's unloaded latency, which also
      // keeps the bounce outside the quantum that produced it.
      ++avail_.bounced_reads;
      mail_comp_[host].push_back(
          {std::max(p.ready, now) + bounce_rx_lat_, p.slot, true});
      continue;
    }
    if (p.ready > now || !can_ship(host, p.device, now)) {
      pending[kept++] = p;
      continue;
    }
    ship_up(host, p.device, link::kReadResponseBytes, now,
            wire(false, p.poisoned, p.slot));
  }
  pending.resize(kept);
  pending_rx_ready_[host] = park_wake(*fab_[host], pending, now, wake);
  return wake;
}

Cycle PooledMemory::park_wake(const fabric::Fabric& fab,
                              const std::vector<PendingResponse>& pending,
                              Cycle now, Cycle& wake) {
  Cycle ready = kNoCycle;
  for (const PendingResponse& p : pending) {
    ready = std::min(ready, p.ready);
    const Cycle at = p.ready > now ? p.ready : fab.rx_credit_cycle(p.device, now);
    wake = std::min(wake, std::max(at, now + 1));
  }
  return ready;
}

Cycle PooledMemory::host_tick(std::uint32_t host, Cycle now) {
  Cycle wake = kNoCycle;
  fabric::Fabric& fab = *fab_[host];

  // Switched planes forward once a head has arrived (a direct link
  // delivered at send time and never has one). Each forward off a shared
  // device's landing port returns that port's credit to the pool across
  // the device segment.
  if (fab.earliest_head() <= now) {
    fab.tick(now);
    take_down(host);
    take_up(host);
    for (std::uint32_t d = 0; d < s_devs_; ++d) {
      for (std::uint32_t n = fab.take_landing_frees(d); n != 0; --n) {
        mail_port_credit_[host].push_back(
            {now + port_credit_lat_, host * s_devs_ + d});
      }
    }
  }

  // Matured flow-control credits become usable.
  mature_credits(pending_credits_[host], credits_[host], now, wake);

  // -- Phase E: private sub-channels (plain CxlMemory-style FIFO). --------
  for (std::uint32_t sub = 0; sub < p_subs_; ++sub) {
    if (!force_tick_ && priv_wake_[host][sub] > now) {
      wake = std::min(wake, priv_wake_[host][sub]);
      continue;
    }
    dram::Controller& ctrl = *priv_ctrls_[host][sub];
    auto& q = priv_ingress_[host][sub];
    while (!q.empty() && q.front().arrival <= now &&
           ctrl.can_accept(q.front().is_write)) {
      const DeviceMsg& msg = q.front();
      if (msg.is_write) {
        ctrl.enqueue(msg.local_line, true, now, 0);
        ++host_priv_ctr_[host].writes;
      } else {
        ctrl.enqueue(msg.local_line, false, now,
                     pack_token(msg.poisoned, host, msg.token));
        ++host_priv_ctr_[host].reads;
      }
      q.pop_front();
    }
    Cycle sw = ctrl.tick(now);
    if (!q.empty()) {
      sw = std::min(sw, q.front().arrival > now ? q.front().arrival : now + 1);
    }
    priv_wake_[host][sub] = sw;
    wake = std::min(wake, sw);

    auto& done = ctrl.completions();
    const std::uint32_t fab_dev = s_devs_ + sub / spd_;
    for (const auto& comp : done) {
      pending_rx_priv_[host].push_back(
          {comp.done, fab_dev,
           static_cast<std::uint32_t>(comp.token & 0xffffffffu),
           (comp.token >> 63) != 0});
      pending_rx_priv_ready_[host] =
          std::min(pending_rx_priv_ready_[host], comp.done);
    }
    done.clear();
  }

  // -- Phase F (private half): ship responses; private devices never die. -
  // While nothing parked is ready the pass would keep every entry in place
  // and yield exactly the earliest ready cycle.
  if (!force_tick_ && pending_rx_priv_ready_[host] > now) {
    wake = std::min(wake, pending_rx_priv_ready_[host]);
  } else {
    auto& pending = pending_rx_priv_[host];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const PendingResponse p = pending[i];
      if (p.ready > now || !fab.can_send_rx(p.device, now)) {
        pending[kept++] = p;
        continue;
      }
      fab.post_rx(p.device, link::kReadResponseBytes, now,
                  wire(false, p.poisoned, p.slot));
      take_up(host);
    }
    pending.resize(kept);
    pending_rx_priv_ready_[host] = park_wake(fab, pending, now, wake);
  }

  // -- Phase G: ack delivered invalidations on the request path. ----------
  {
    auto& invals = host_invals_[host];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < invals.size(); ++i) {
      const HostInval iv = invals[i];
      if (iv.arrival > now || !fab.can_send_tx(iv.sdev, now)) {
        invals[kept++] = iv;
        wake = std::min(
            wake, std::max(iv.arrival > now ? iv.arrival : now + 1, now + 1));
        continue;
      }
      // A dirty recall ack carries the line back; a clean ack is control.
      const std::uint32_t bytes =
          iv.dirty ? link::kWriteMessageBytes : link::kReadRequestBytes;
      fab.post_tx(iv.sdev, bytes, now, wire(true, iv.dirty, iv.txn));
      take_down(host);
      ++host_ack_ctr_[host].acks_sent;
      ++host_ack_ctr_[host].invals_received;
    }
    invals.resize(kept);
  }

  // Every message in the head's planes, sent after this cycle's tick or
  // not, waits at some ingress head: their earliest arrival bounds the
  // next forward.
  const Cycle head = fab.earliest_head();
  if (head != kNoCycle) wake = std::min(wake, std::max(head, now + 1));
  return wake;
}

Cycle PooledMemory::exchange_shard_mail(Cycle now) {
  Cycle effect = kNoCycle;
  // Into the pool shard first: an onset-straggler demand bounced here
  // appends its completion to mail_comp_, which the second loop then
  // delivers in the same exchange.
  for (std::uint32_t h = 0; h < n_hosts_; ++h) {
    for (const DemandMail& dm : mail_demand_[h]) {
      check_on_time("demand", h, dm.msg.arrival, now);
      if (dead_ && dm.sub / spd_ == fail_dev_) {
        // Sent before the host shard observed the death: bounce at the
        // barrier and return the credit (the queue it aimed for is gone).
        bounce_msg(h, dm.msg, std::max(dm.msg.arrival, now));
        mail_credit_[h].push_back({now + credit_lat_, dm.sub});
        continue;
      }
      shared_ingress_[dm.sub][h].push_back(dm.msg);
      shared_wake_[dm.sub] = std::min(shared_wake_[dm.sub], dm.msg.arrival);
      effect = std::min(effect, dm.msg.arrival);
    }
    mail_demand_[h].clear();
    for (const DevAck& am : mail_ack_[h]) {
      check_on_time("ack", h, am.arrival, now);
      dev_acks_.push_back(am);
      effect = std::min(effect, am.arrival);
    }
    mail_ack_[h].clear();
    for (const CreditMail& cr : mail_port_credit_[h]) {
      check_on_time("switch-port credit", h, cr.at, now);
      pending_port_credits_.push_back(cr);
      effect = std::min(effect, cr.at);
    }
    mail_port_credit_[h].clear();
  }
  for (std::uint32_t h = 0; h < n_hosts_; ++h) {
    for (const CompMail& cm : mail_comp_[h]) {
      check_on_time("completion", h, cm.done, now);
      finish_read(h, cm.slot, cm.done, cm.poisoned);
      effect = std::min(effect, cm.done);
    }
    mail_comp_[h].clear();
    for (const CreditMail& cr : mail_credit_[h]) {
      check_on_time("credit", h, cr.at, now);
      pending_credits_[h].push_back(cr);
      effect = std::min(effect, cr.at);
    }
    mail_credit_[h].clear();
    // Responses and invalidations land on the host's side of the head: a
    // direct link delivers them at once, a switch queues them at the
    // device's ingress port for the host shard's next tick.
    for (const fabric::FabricMsg& m : mail_up_[h]) {
      check_on_time("uplink", h, m.ready, now);
      fab_[h]->land_rx(m);
      effect = std::min(effect, m.ready);
    }
    mail_up_[h].clear();
    take_up(h);
  }
  return effect;
}

void PooledMemory::bounce_msg(std::uint32_t host, const DeviceMsg& msg,
                              Cycle at) {
  if (msg.is_write) {
    ++avail_.lost_writes;
  } else {
    ++avail_.bounced_reads;
    // The pool shard may not complete a host-owned read slot directly; the
    // poison response crosses back as completion mail, paying the
    // synthesised response's unloaded latency.
    mail_comp_[host].push_back(
        {at + bounce_rx_lat_, static_cast<std::uint32_t>(msg.token), true});
  }
}

void PooledMemory::pool_fail_onset(Cycle now) {
  dead_ = true;
  ++avail_.devices_offlined;
  // Everything queued at the dead device's sub-channels bounces: reads
  // poison-complete exactly once, writes are lost. Reads already inside
  // its DRAM complete poisoned when their data would have returned (the
  // dead-device branch in the response phase routes around the fabric).
  for (std::uint32_t sub = fail_dev_ * spd_; sub < (fail_dev_ + 1) * spd_;
       ++sub) {
    for (std::uint32_t h = 0; h < n_hosts_; ++h) {
      for (const DeviceMsg& m : shared_ingress_[sub][h]) {
        bounce_msg(h, m, std::max(m.arrival, now));
        mail_credit_[h].push_back({now + credit_lat_, sub});
      }
      shared_ingress_[sub][h].clear();
    }
  }
  // Recall data waiting for a write slot on the dead device is lost.
  {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_wbs_.size(); ++i) {
      const PendingWb w = pending_wbs_[i];
      if (w.sub / spd_ == fail_dev_) {
        ++avail_.lost_dirty_pages;
        continue;
      }
      pending_wbs_[kept++] = w;
    }
    pending_wbs_.resize(kept);
  }
  // Directory teardown: every cached copy of a page the device backed must
  // be invalidated — the backing store is gone — and modified pages lose
  // their only durable home, so they count as lost dirty data. The
  // invalidations go out as recovery transactions in waves bounded by the
  // transaction table, through the ordinary send/ack machinery, so
  // invals_sent == invals_acked holds across the teardown.
  for (const Directory::Entry& e : dirs_[fail_dev_]->fail_reset()) {
    if (e.state == PageState::kModified) ++avail_.lost_dirty_pages;
    if (e.sharers != 0) recovery_q_.push_back({e.page, e.sharers});
  }
}

Cycle PooledMemory::pump_pool_failure(Cycle now) {
  if (!dead_) {
    if (now < fail_at_) return fail_at_;
    pool_fail_onset(now);
  }
  while (!recovery_q_.empty() &&
         txns_per_dev_[fail_dev_] < cfg_.directory_max_txns) {
    const auto [page, mask] = recovery_q_.front();
    recovery_q_.pop_front();
    const std::uint32_t t = alloc_txn();
    CohTxn& x = txns_[t];
    x = CohTxn{};
    x.live = true;
    x.recovery = true;
    x.sdev = fail_dev_;
    x.page = page;
    x.send_clean = mask;  // Always clean: the dirty data is already lost.
    x.acks_pending = std::popcount(mask);
    avail_.recovery_invals += x.acks_pending;
    ++ctr_.txns;
    ++txns_per_dev_[fail_dev_];
    ++live_txns_;
    pump_txn_sends(t, now);
  }
  return recovery_q_.empty() ? kNoCycle : now + 1;
}

ras::RasCounters PooledMemory::ras_counters() const {
  ras::RasCounters sum;
  for (const auto& f : fab_) sum += f->ras_counters();
  return sum;
}

ras::AvailCounters PooledMemory::avail_counters() const {
  ras::AvailCounters sum = avail_;
  for (const auto& a : avail_host_) sum += a;
  return sum;
}

PoolCounters PooledMemory::counters() const {
  PoolCounters c = ctr_;
  for (const HostPrivCtr& p : host_priv_ctr_) {
    c.private_reads += p.reads;
    c.private_writes += p.writes;
  }
  return c;
}

HostCounters PooledMemory::host_counters(std::uint32_t host) const {
  HostCounters c;
  c.reads = host_shared_ctr_[host].reads + host_priv_ctr_[host].reads;
  c.writes = host_shared_ctr_[host].writes + host_priv_ctr_[host].writes;
  c.shared = host_shared_ctr_[host].shared;
  c.invals_received = host_ack_ctr_[host].invals_received;
  c.acks_sent = host_ack_ctr_[host].acks_sent;
  return c;
}

std::string PooledMemory::pending_work() const {
  std::string out;
  const auto note = [&out](const char* name, std::uint64_t n) {
    if (n == 0) return;
    if (!out.empty()) out += ", ";
    out += name;
    out += '=';
    out += std::to_string(n);
  };
  const auto total = [](const auto& per_owner) {
    std::uint64_t n = 0;
    for (const auto& v : per_owner) n += v.size();
    return n;
  };
  std::uint64_t reads = 0;
  for (const std::uint64_t n : inflight_reads_) reads += n;
  std::uint64_t shared_ingress = 0;
  for (const auto& per_host : shared_ingress_) shared_ingress += total(per_host);
  std::uint64_t priv_ingress = 0;
  for (const auto& per_sub : priv_ingress_) priv_ingress += total(per_sub);
  std::uint64_t fabric_msgs = 0;
  for (const auto& f : fab_) fabric_msgs += f->queued_msgs();
  note("inflight_reads", reads);
  note("fabric_msgs", fabric_msgs);
  note("shared_ingress", shared_ingress);
  note("priv_ingress", priv_ingress);
  note("pending_rx", total(pending_rx_));
  note("pending_rx_priv", total(pending_rx_priv_));
  note("live_txns", live_txns_);
  note("dev_acks", dev_acks_.size());
  note("host_invals", total(host_invals_));
  note("pending_wbs", pending_wbs_.size());
  note("recovery_q", recovery_q_.size());
  // Mailbox contents and undrained completions: only meaningful right
  // after a barrier exchange, which is the only place the engine asks.
  // Maturing flow-control credits are deliberately excluded — they are
  // budget, not work, and their maturation is deterministic regardless.
  note("mail", total(mail_demand_) + total(mail_ack_) + total(mail_port_credit_) +
                   total(mail_up_) + total(mail_comp_) + total(mail_credit_));
  note("completions", total(out_));
  return out;
}

}  // namespace coaxial::pool
