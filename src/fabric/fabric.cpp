#include "fabric/fabric.hpp"

#include <algorithm>
#include <string>

#include "obs/profiler.hpp"

namespace coaxial::fabric {

Fabric::Fabric(const FabricConfig& cfg, std::uint32_t default_channels,
               const link::LaneConfig& lanes, obs::Scope scope)
    : cfg_(resolve(cfg, default_channels)), topo_(Topology::build(cfg_)), lanes_(lanes) {
  lanes_.validate();
  link_down_.assign(topo_.n_devices, false);
  if (direct()) {
    direct_links_.reserve(topo_.n_devices);
    for (std::uint32_t i = 0; i < topo_.n_devices; ++i) {
      const std::string tag = "cxl/link" + obs::idx(i);
      direct_links_.push_back(std::make_unique<link::CxlLink>(
          lanes_, cfg_.switch_max_backlog_cycles, scope.sub(tag), tag));
    }
    return;
  }

  const Cycle P = lanes_.port_latency_cycles();
  const Cycle S = cfg_.switch_port_cycles();
  const Cycle backlog = cfg_.switch_max_backlog_cycles;
  const std::uint32_t depth = cfg_.switch_queue_depth;
  const bool tree = cfg_.kind == TopologyKind::kTree;
  hops_ = tree ? 2 : 1;
  devs_per_leaf_ = tree ? topo_.n_devices / cfg_.leaf_switches : topo_.n_devices;

  const obs::Scope fs = scope.sub("fabric");
  if (fs.valid()) {
    const obs::Scope topo = fs.sub("topology");
    topo.expose_counter("devices", [this] { return std::uint64_t{topo_.n_devices}; });
    topo.expose_counter("host_links", [this] { return std::uint64_t{topo_.host_links}; });
    topo.expose_counter("switches", [this] { return std::uint64_t{topo_.n_switches}; });
  }

  // Injection pipes: host root ports (down) and device uplinks (up). Each
  // crosses one link port (P) and one switch ingress port (S).
  host_tx_.reserve(topo_.host_links);
  for (std::uint32_t l = 0; l < topo_.host_links; ++l) {
    const std::string tag = "fabric/host" + obs::idx(l) + "/tx";
    host_tx_.push_back(std::make_unique<link::SerialPipe>(lanes_.tx_goodput_gbps, P + S,
                                                          backlog, tag));
    host_tx_.back()->register_stats(fs.sub("host" + obs::idx(l) + "/tx"));
  }
  landing_frees_.assign(topo_.n_devices, 0);
  dev_up_.reserve(topo_.n_devices);
  for (std::uint32_t d = 0; d < topo_.n_devices; ++d) {
    const std::string tag = "fabric/dev" + obs::idx(d) + "/up";
    dev_up_.push_back(std::make_unique<link::SerialPipe>(lanes_.rx_goodput_gbps, P + S,
                                                         backlog, tag));
    dev_up_.back()->register_stats(fs.sub("dev" + obs::idx(d) + "/up"));
  }

  // Root switch planes. The egress pipe models the segment it drives:
  // switch->device is S+P, switch->switch is 2S.
  const Cycle root_down_fixed = tree ? 2 * S : S + P;
  root_down_ = std::make_unique<Switch>(topo_.host_links,
                                        tree ? cfg_.leaf_switches : topo_.n_devices,
                                        lanes_.tx_goodput_gbps, root_down_fixed, backlog,
                                        depth, fs.sub("sw00/down"), "fabric/sw00/down");
  root_up_ = std::make_unique<Switch>(tree ? cfg_.leaf_switches : topo_.n_devices,
                                      topo_.host_links, lanes_.rx_goodput_gbps, S + P,
                                      backlog, depth, fs.sub("sw00/up"), "fabric/sw00/up");
  if (tree) {
    for (std::uint32_t i = 0; i < cfg_.leaf_switches; ++i) {
      const std::string tag = "sw" + obs::idx(1 + i);
      leaf_down_.push_back(std::make_unique<Switch>(
          1u, devs_per_leaf_, lanes_.tx_goodput_gbps, S + P, backlog, depth,
          fs.sub(tag + "/down"), "fabric/" + tag + "/down"));
      leaf_up_.push_back(std::make_unique<Switch>(
          devs_per_leaf_, 1u, lanes_.rx_goodput_gbps, 2 * S, backlog, depth,
          fs.sub(tag + "/up"), "fabric/" + tag + "/up"));
    }
  }
}

void Fabric::arm_faults(const ras::FaultPlan& plan) {
  plan.validate();
  if (!plan.link_faults()) return;
  for (auto& l : direct_links_) l->arm_faults(plan);
  for (auto& p : host_tx_) p->arm_faults(plan);
  for (auto& p : dev_up_) p->arm_faults(plan);
  if (root_down_) root_down_->arm_faults(plan);
  if (root_up_) root_up_->arm_faults(plan);
  for (auto& s : leaf_down_) s->arm_faults(plan);
  for (auto& s : leaf_up_) s->arm_faults(plan);
}

ras::RasCounters Fabric::ras_counters() const {
  ras::RasCounters c;
  for (const auto& l : direct_links_) c += l->ras_counters();
  for (const auto& p : host_tx_)
    if (const ras::RasCounters* r = p->ras()) c += *r;
  for (const auto& p : dev_up_)
    if (const ras::RasCounters* r = p->ras()) c += *r;
  if (root_down_) c += root_down_->ras_counters();
  if (root_up_) c += root_up_->ras_counters();
  for (const auto& s : leaf_down_) c += s->ras_counters();
  for (const auto& s : leaf_up_) c += s->ras_counters();
  return c;
}

bool Fabric::can_send_tx(std::uint32_t dev, Cycle now) const {
  if (link_down_[dev]) return false;
  if (direct()) return direct_links_[dev]->can_send_tx(now);
  const std::uint32_t port = topo_.root_port_of(dev);
  return host_tx_[port]->can_send(now) && root_down_->can_enqueue(port);
}

bool Fabric::can_send_rx(std::uint32_t dev, Cycle now) const {
  if (!can_inject_rx(dev, now)) return false;
  if (direct()) return true;
  return cfg_.kind == TopologyKind::kTree
             ? leaf_up_[leaf_of(dev)]->can_enqueue(leaf_port_of(dev))
             : root_up_->can_enqueue(dev);
}

void Fabric::post_tx(std::uint32_t dev, std::uint32_t bytes, Cycle now,
                     std::uint64_t payload) {
  if (direct()) {
    const link::SendResult sr = direct_links_[dev]->send_tx(bytes, now);
    tx_out_.push_back({sr.at, dev, payload, sr.poisoned});
    return;
  }
  const std::uint32_t port = topo_.root_port_of(dev);
  const link::SendResult ready = host_tx_[port]->send(bytes, now);
  root_down_->enqueue(port, {ready.at, dev, bytes, payload, ready.poisoned});
}

void Fabric::post_rx(std::uint32_t dev, std::uint32_t bytes, Cycle now,
                     std::uint64_t payload) {
  const link::SendResult ready = inject_rx(dev, bytes, now);
  land_rx({ready.at, dev, bytes, payload, ready.poisoned});
}

bool Fabric::can_inject_rx(std::uint32_t dev, Cycle now) const {
  if (link_down_[dev]) return false;
  return direct() ? direct_links_[dev]->can_send_rx(now) : dev_up_[dev]->can_send(now);
}

link::SendResult Fabric::inject_rx(std::uint32_t dev, std::uint32_t bytes, Cycle now) {
  return direct() ? direct_links_[dev]->send_rx(bytes, now)
                  : dev_up_[dev]->send(bytes, now);
}

void Fabric::land_rx(const FabricMsg& msg) {
  if (direct()) {
    rx_out_.push_back({msg.ready, msg.dest, msg.payload, msg.poisoned});
  } else if (cfg_.kind == TopologyKind::kTree) {
    leaf_up_[leaf_of(msg.dest)]->enqueue(leaf_port_of(msg.dest), msg);
  } else {
    root_up_->enqueue(msg.dest, msg);
  }
}

std::uint64_t Fabric::landing_depth() const {
  return direct() ? ~std::uint64_t{0} : cfg_.switch_queue_depth;
}

std::uint32_t Fabric::take_landing_frees(std::uint32_t dev) {
  if (direct()) return 0;
  const std::uint32_t n = landing_frees_[dev];
  landing_frees_[dev] = 0;
  return n;
}

std::size_t Fabric::queued_msgs() const {
  if (direct()) return 0;
  std::size_t n = root_down_->queued() + root_up_->queued();
  for (const auto& s : leaf_down_) n += s->queued();
  for (const auto& s : leaf_up_) n += s->queued();
  return n;
}

Cycle Fabric::rx_credit_cycle(std::uint32_t dev, Cycle now) const {
  return direct() ? direct_links_[dev]->rx_credit_cycle(now)
                  : dev_up_[dev]->credit_cycle(now);
}

Cycle Fabric::planes_head() const {
  Cycle at = std::min(root_down_->earliest_head(), root_up_->earliest_head());
  for (const auto& s : leaf_down_) at = std::min(at, s->earliest_head());
  for (const auto& s : leaf_up_) at = std::min(at, s->earliest_head());
  return at;
}

Cycle Fabric::tick_planes(Cycle now) {
  // Idle fast path (Switch's idle contract, for every plane at once): with
  // no head arrived anywhere, no plane forwards, so nothing lands in a
  // downstream ingress and the full tick would return this same bound.
  // Checked before the profiler scope, like Controller::tick's wake_cache_.
  const Cycle head = planes_head();
  if (head > now) return head;
  COAXIAL_PROF_SCOPE(kFabricArb);
  Cycle wake = kNoCycle;
  const bool tree = cfg_.kind == TopologyKind::kTree;

  // Down plane, downstream order: root first so its output lands in leaf
  // ingress before the leaves compute their wake bounds.
  if (tree) {
    wake = std::min(
        wake, root_down_->tick(
                  now, [this](const FabricMsg& m) { return leaf_of(m.dest); },
                  [this](std::uint32_t out) { return leaf_down_[out]->can_enqueue(0); },
                  [this](std::uint32_t out, const FabricMsg& m, Cycle arrival) {
                    leaf_down_[out]->enqueue(
                        0, {arrival, m.dest, m.bytes, m.payload, m.poisoned});
                  }));
    for (auto& leaf : leaf_down_) {
      wake = std::min(
          wake, leaf->tick(
                    now, [this](const FabricMsg& m) { return leaf_port_of(m.dest); },
                    [](std::uint32_t) { return true; },
                    [this](std::uint32_t, const FabricMsg& m, Cycle arrival) {
                      tx_out_.push_back({arrival, m.dest, m.payload, m.poisoned});
                    }));
    }
  } else {
    wake = std::min(
        wake, root_down_->tick(
                  now, [](const FabricMsg& m) { return m.dest; },
                  [](std::uint32_t) { return true; },
                  [this](std::uint32_t, const FabricMsg& m, Cycle arrival) {
                    tx_out_.push_back({arrival, m.dest, m.payload, m.poisoned});
                  }));
  }

  // Up plane, downstream order: leaves feed the root, the root delivers.
  if (tree) {
    // A leaf is the first up hop: every forward frees a landing slot.
    for (std::uint32_t i = 0; i < leaf_up_.size(); ++i) {
      wake = std::min(
          wake, leaf_up_[i]->tick(
                    now, [](const FabricMsg&) { return 0u; },
                    [this, i](std::uint32_t) { return root_up_->can_enqueue(i); },
                    [this, i](std::uint32_t, const FabricMsg& m, Cycle arrival) {
                      ++landing_frees_[m.dest];
                      root_up_->enqueue(
                          i, {arrival, m.dest, m.bytes, m.payload, m.poisoned});
                    }));
    }
  }
  wake = std::min(
      wake, root_up_->tick(
                now, [this](const FabricMsg& m) { return topo_.root_port_of(m.dest); },
                [](std::uint32_t) { return true; },
                [this, tree](std::uint32_t, const FabricMsg& m, Cycle arrival) {
                  if (!tree) ++landing_frees_[m.dest];
                  rx_out_.push_back({arrival, m.dest, m.payload, m.poisoned});
                }));
  return wake;
}

Cycle Fabric::unloaded_tx_cycles(std::uint32_t bytes) const {
  if (direct()) return direct_links_[0]->unloaded_one_way(bytes, lanes_.tx_goodput_gbps);
  const Cycle ser = serialization_cycles(lanes_.tx_goodput_gbps, bytes);
  return (hops_ + 1) * ser + 2 * lanes_.port_latency_cycles() +
         2 * hops_ * cfg_.switch_port_cycles();
}

Cycle Fabric::unloaded_rx_cycles(std::uint32_t bytes) const {
  if (direct()) return direct_links_[0]->unloaded_one_way(bytes, lanes_.rx_goodput_gbps);
  const Cycle ser = serialization_cycles(lanes_.rx_goodput_gbps, bytes);
  return (hops_ + 1) * ser + 2 * lanes_.port_latency_cycles() +
         2 * hops_ * cfg_.switch_port_cycles();
}

Cycle Fabric::unloaded_device_hop_cycles(std::uint32_t bytes) const {
  if (direct()) return std::min(unloaded_tx_cycles(bytes), unloaded_rx_cycles(bytes));
  const Cycle ser = std::min(serialization_cycles(lanes_.tx_goodput_gbps, bytes),
                             serialization_cycles(lanes_.rx_goodput_gbps, bytes));
  return ser + lanes_.port_latency_cycles() + cfg_.switch_port_cycles();
}

void Fabric::reset_stats() {
  for (auto& l : direct_links_) l->reset_stats();
  for (auto& p : host_tx_) p->reset_stats();
  for (auto& p : dev_up_) p->reset_stats();
  if (root_down_) root_down_->reset_stats();
  if (root_up_) root_up_->reset_stats();
  for (auto& s : leaf_down_) s->reset_stats();
  for (auto& s : leaf_up_) s->reset_stats();
}

}  // namespace coaxial::fabric
