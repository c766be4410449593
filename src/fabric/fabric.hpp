// The routed host<->device fabric: topology + links + switches.
//
// One Fabric instance replaces the implicit one-CxlLink-per-device wiring
// in coaxial::CxlMemory. Direct topologies are a thin pass-through over
// real CxlLink objects (registered at the legacy `cxl/linkNN` metric paths,
// so golden stats are byte-identical); switched topologies route messages
// through per-plane Switch nodes and surface deliveries asynchronously via
// tick(). One code path serves both shapes at the call site:
//
//   if (fabric.can_send_tx(dev, now)) fabric.send_tx(dev, bytes, now, cookie);
//   ... fabric.tick(now); drain tx_deliveries()/rx_deliveries() ...
//
// Latency model per segment (P = link port traversal, S = switch port
// traversal, both fixed): host<->switch and switch<->device segments cost
// P+S / S+P on top of their store-and-forward serialisation; a
// switch<->switch segment costs 2S. An unloaded one-way trip through k
// switches is therefore (k+1) serialisations + 2P + 2kS — each switch hop
// adds exactly two port traversals plus one re-serialisation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "fabric/switch.hpp"
#include "fabric/topology.hpp"
#include "link/cxl_link.hpp"
#include "link/lane_config.hpp"
#include "obs/metrics.hpp"
#include "ras/fault_plan.hpp"

namespace coaxial::fabric {

/// A message that finished crossing the fabric during tick(). `arrival` may
/// be in the future (store-and-forward delivery time of the final segment).
struct Delivery {
  Cycle arrival = 0;
  std::uint32_t device = 0;
  std::uint64_t payload = 0;
  bool poisoned = false;  ///< Message exhausted a replay budget en route.
};

class Fabric {
 public:
  /// `cfg` is resolved against `default_channels` (zero counts inherit it).
  /// `scope`, when valid, registers direct links at `cxl/linkNN` and
  /// switched-plane metrics under `fabric/*`.
  Fabric(const FabricConfig& cfg, std::uint32_t default_channels,
         const link::LaneConfig& lanes, obs::Scope scope = {});

  /// Arm deterministic fault injection on every segment (direct links,
  /// injection pipes and switch egress pipes). No-op for a plan without
  /// link faults; call once, before the first send.
  void arm_faults(const ras::FaultPlan& plan);

  /// RAS events summed over every segment (all-zero when unarmed).
  ras::RasCounters ras_counters() const;

  /// Surprise-removal admission control (DESIGN.md §13): a downed link
  /// accepts no new messages in either direction. Messages already buffered
  /// in switch planes keep draining — their Deliveries still surface — so
  /// the owner must bounce them at drain time. Idempotent.
  void set_link_down(std::uint32_t dev) { link_down_[dev] = true; }
  bool link_down(std::uint32_t dev) const { return link_down_[dev]; }

  bool direct() const { return topo_.n_switches == 0; }
  std::uint32_t devices() const { return topo_.n_devices; }
  std::uint32_t host_links() const { return topo_.host_links; }
  std::uint32_t root_port_of(std::uint32_t dev) const { return topo_.root_port_of(dev); }
  const Topology& topology() const { return topo_; }
  const FabricConfig& config() const { return cfg_; }

  // ------------------------------------------------ host -> device (down)
  bool can_send_tx(std::uint32_t dev, Cycle now) const;
  /// Direct: returns the device-arrival cycle (classic analytic link) plus
  /// the message's poison flag. Switched: enqueues into the fabric and
  /// returns kNoCycle — the arrival (and poison state) surfaces through
  /// tx_deliveries() during a later tick().
  link::SendResult send_tx(std::uint32_t dev, std::uint32_t bytes, Cycle now,
                           std::uint64_t payload);

  // ------------------------------------------------ device -> host (up)
  bool can_send_rx(std::uint32_t dev, Cycle now) const;
  link::SendResult send_rx(std::uint32_t dev, std::uint32_t bytes, Cycle now,
                           std::uint64_t payload);
  /// Earliest cycle (>= now) the device's uplink pipe has a free credit
  /// (a full switch ingress behind it drains at its own ticks).
  Cycle rx_credit_cycle(std::uint32_t dev, Cycle now) const;

  /// Posted sends report every arrival through tx_deliveries() /
  /// rx_deliveries(): a direct link's at once, a switched plane's at the
  /// tick() that forwards it off its last hop. Gate on can_send_*().
  void post_tx(std::uint32_t dev, std::uint32_t bytes, Cycle now,
               std::uint64_t payload);
  void post_rx(std::uint32_t dev, std::uint32_t bytes, Cycle now,
               std::uint64_t payload);

  // A posted device -> host send is inject_rx() (serialise on the device's
  // uplink pipe: a direct link's rx pipe, or the uplink into the first
  // switch) then land_rx() (a direct link delivers, a switch queues at the
  // device's ingress port). The halves touch disjoint state, so two shards
  // may own them (DESIGN.md §14).
  bool can_inject_rx(std::uint32_t dev, Cycle now) const;
  link::SendResult inject_rx(std::uint32_t dev, std::uint32_t bytes, Cycle now);
  /// `msg.ready` is inject_rx()'s cycle, `msg.dest` the sending device.
  void land_rx(const FabricMsg& msg);
  /// Messages a device's landing point holds: its switch ingress port's
  /// depth, unbounded for a direct link (which delivers at once).
  std::uint64_t landing_depth() const;
  /// Messages the first up-plane hop forwarded off `dev`'s landing port
  /// since the last call (each frees one slot there); resets the count.
  std::uint32_t take_landing_frees(std::uint32_t dev);

  /// Messages buffered in the switch planes (always 0 for direct fabrics).
  std::size_t queued_msgs() const;

  /// Advance the switched planes (downstream order, so a hop's output lands
  /// in the next hop's ingress before that hop computes its wake). Fills
  /// tx_deliveries()/rx_deliveries(); returns a conservative wake bound.
  /// Direct fabrics have no buffered state and return kNoCycle.
  Cycle tick(Cycle now);
  /// Earliest arrival over every switch plane's ingress heads (kNoCycle
  /// when nothing is buffered, and always for direct fabrics). Every
  /// message inside a switched fabric waits in some plane's ingress queue,
  /// so max(this, now + 1) is a sound wake bound for a message sent after
  /// this cycle's tick().
  Cycle earliest_head() const;
  std::vector<Delivery>& tx_deliveries() { return tx_out_; }
  std::vector<Delivery>& rx_deliveries() { return rx_out_; }

  /// Unloaded one-way latency for a message of `bytes` (uniform across
  /// devices by construction): per-hop serialisation plus all fixed port
  /// traversals.
  Cycle unloaded_tx_cycles(std::uint32_t bytes) const;
  Cycle unloaded_rx_cycles(std::uint32_t bytes) const;
  /// Unloaded latency of the device segment alone, the smaller of its two
  /// directions: the whole link on a direct fabric, one serialisation plus
  /// a switch port and a link port (S + P) on a switched one.
  Cycle unloaded_device_hop_cycles(std::uint32_t bytes) const;

  /// Direct-mode access to the underlying per-channel link (legacy API).
  const link::CxlLink& direct_link(std::uint32_t i) const { return *direct_links_[i]; }

  void reset_stats();

 private:
  std::uint32_t leaf_of(std::uint32_t dev) const { return dev / devs_per_leaf_; }
  std::uint32_t leaf_port_of(std::uint32_t dev) const { return dev % devs_per_leaf_; }

  FabricConfig cfg_;
  Topology topo_;
  link::LaneConfig lanes_;
  std::vector<bool> link_down_;  ///< Per-device surprise-removal latch.
  std::uint32_t hops_ = 0;           ///< Switches on every host<->device path.
  std::uint32_t devs_per_leaf_ = 1;  ///< Devices per last-level switch.

  // Direct pass-through.
  std::vector<std::unique_ptr<link::CxlLink>> direct_links_;

  // Switched planes. Injection pipes live at the sender (host / device);
  // every later segment's pipe is the egress of the switch that drives it.
  std::vector<std::unique_ptr<link::SerialPipe>> host_tx_;  ///< Host root-port egress.
  std::vector<std::unique_ptr<link::SerialPipe>> dev_up_;   ///< Device uplink egress.
  std::unique_ptr<Switch> root_down_, root_up_;
  std::vector<std::unique_ptr<Switch>> leaf_down_, leaf_up_;

  std::vector<Delivery> tx_out_, rx_out_;
  std::vector<std::uint32_t> landing_frees_;  ///< Per device, switched only.
};

}  // namespace coaxial::fabric
