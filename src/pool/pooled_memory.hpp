// Pooled CXL memory shared by N host slices (DESIGN.md §12).
//
// Generalises coaxial::CxlMemory from one host to N: every host owns its
// own fabric::Fabric head whose endpoint list is [shared pooled devices,
// host-private devices] — pooled devices are multi-headed (one uplink per
// host), private devices are reachable from their owner only. DRAM behind
// the pooled devices is one global set of controllers; private DRAM is
// per host.
//
// Every access admitted at a pooled device is presented to that device's
// pool::Directory. When the decision demands a coherence round (remote
// read of a modified page, write to a shared page, capacity eviction), the
// access parks in a transaction and the invalidations travel the real
// fabric: device -> sharer host on the sharer's return path (contending
// with its read responses), ack host -> device on the sharer's request
// path (contending with its demand traffic). Invalidation latency is
// therefore topology-dependent — a switched fabric pays its switch hops —
// and a dirty recall additionally writes the recalled line into device
// DRAM before the parked access is admitted.
//
// Determinism contract (same as mem::MemorySystem): can_accept() is pure;
// all state mutates inside access() and the shard pumps; every action is
// keyed on message arrival cycles and fixed scan orders (sub-channel index,
// then host index), never on how often a pump was polled; each pump
// returns a conservative wake bound (state that can act on its own retries
// at now + 1; a head parked behind a directory lock, or a transaction
// waiting on acks, wakes when the unlock or the ack arrives), so the
// event-driven and tick-every-cycle schedulers agree bit-for-bit.
//
// One pump: every pool runs as shard-owned halves under
// sim::PooledSystem's conservative-lookahead quantum engine (DESIGN.md
// §14, sim/shard.hpp), on direct and switched heads alike. The heads are
// cut at the shared devices' ports:
//
//   * host shard h owns its head fab_[h] (tx pipes, switch planes,
//     private-device uplinks), its slice's admission (can_accept/access),
//     the private-device path end to end, its read-slot table and
//     completion queue, invalidation acking, and per-sub credits standing
//     in for the pooled ingress occupancy it cannot read;
//   * the pool shard owns the shared devices' uplink pipes, pooled
//     ingress/DRAM/directories, coherence transactions, recall writebacks,
//     shared response shipping, the device-failure lifecycle, and
//     per-(host, shared device) credits standing in for the occupancy of a
//     switched head's landing port.
//
// Cross-shard traffic (demands, acks, responses, invalidations, bounces,
// credit returns) travels through per-host mailboxes flushed by the
// coordinator at quantum barriers via exchange_shard_mail(). Every such
// message is stamped at least min_cross_shard_latency() cycles in the
// future by construction (it crosses a device segment, whose delivery is
// >= send + unloaded latency), which is exactly the engine's quantum.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "dram/controller.hpp"
#include "fabric/fabric.hpp"
#include "obs/metrics.hpp"
#include "placement/address_map.hpp"
#include "pool/directory.hpp"
#include "pool/pool_config.hpp"

namespace coaxial::pool {

/// A finished read for one host slice.
struct HostCompletion {
  std::uint64_t token = 0;
  Cycle done = 0;
  bool poisoned = false;  ///< CRC budget exhausted, or the device died.
};

/// Per-host admission/protocol counters (pool/host/NN/*). Assembled on
/// demand by host_counters(): the underlying fields are split by owning
/// shard so the sharded pump never writes one counter from two threads.
struct HostCounters {
  std::uint64_t reads = 0;   ///< Demand reads admitted to DRAM.
  std::uint64_t writes = 0;  ///< Demand writes admitted to DRAM.
  std::uint64_t shared = 0;  ///< Of those, pooled-window accesses.
  std::uint64_t invals_received = 0;
  std::uint64_t acks_sent = 0;
};

class PooledMemory {
 public:
  PooledMemory(const PoolConfig& cfg, obs::Scope scope = {});

  /// Pure admission check for `host` (mirrors mem::MemorySystem).
  bool can_accept(std::uint32_t host, Addr line, bool is_write, Cycle now) const;

  /// Issue an access; must only be called when can_accept() returned true
  /// this cycle. Reads echo `token` in the host's completions; writes are
  /// posted.
  void access(std::uint32_t host, Addr line, bool is_write, Cycle now,
              std::uint64_t token);

  void set_force_tick(bool force) { force_tick_ = force; }

  std::vector<HostCompletion>& completions(std::uint32_t host) {
    return out_[host];
  }

  // ---- sharded engine (DESIGN.md §14) ----------------------------------
  /// Smallest latency any cross-shard message can experience — the
  /// engine's quantum: the unloaded device-segment latency of the smallest
  /// message (Fabric::unloaded_device_hop_cycles). Every cross-shard
  /// message crosses that segment, and SerialPipe delivery is always >= now
  /// + unloaded latency (backlog, faults and down-training only add to it),
  /// so this is a sound lookahead.
  Cycle min_cross_shard_latency() const;
  /// Pool-shard pump: device failure lifecycle, ack retirement, coherence
  /// transactions, pooled sub-channels, shared response shipping.
  Cycle pool_tick(Cycle now);
  /// Host-shard pump for `host`: credit maturation, the private-device
  /// path, invalidation acking.
  Cycle host_tick(std::uint32_t host, Cycle now);
  /// Coordinator-only, at a quantum barrier (no shard running): flush
  /// every mailbox into its destination shard's structures in fixed
  /// (host-index, FIFO) order. Returns the earliest cycle at which any
  /// delivered message takes effect (kNoCycle if all mailboxes were
  /// empty), so the engine can skip whole idle quanta. Throws
  /// std::logic_error if a message would take effect before `now`: the
  /// quantum outran the cross-shard latency floor.
  Cycle exchange_shard_mail(Cycle now);

  /// True once no read, coherence message or writeback is in flight
  /// anywhere (the drain condition; implies invals_sent == invals_acked).
  /// Covers undrained completions and mailbox contents, so it is only
  /// meaningful at barriers.
  bool quiescent() const { return pending_work().empty(); }
  /// The structures still holding work, as "name=count" items (empty when
  /// quiescent) — the diagnostic for a wedged drain.
  std::string pending_work() const;

  /// RAS events summed over every host head's fabric (all-zero unarmed).
  ras::RasCounters ras_counters() const;
  /// Device-failure lifecycle counters (DESIGN.md §13), merged over the
  /// pool-shard and host-shard halves.
  ras::AvailCounters avail_counters() const;
  /// True once the planned surprise removal has happened.
  bool device_dead() const { return dead_; }

  const PoolConfig& config() const { return cfg_; }
  const Directory& directory(std::uint32_t shared_dev) const {
    return *dirs_[shared_dev];
  }
  /// Lifetime protocol totals, merged over the owning shards.
  PoolCounters counters() const;
  HostCounters host_counters(std::uint32_t host) const;

 private:
  // One queued device-side message (host identified by the queue index).
  struct DeviceMsg {
    Cycle arrival = 0;
    Addr local_line = 0;      ///< Sub-channel-local line.
    Addr page = 0;            ///< Pool-global shared page id (shared only).
    std::uint64_t token = 0;  ///< Read slot; unused for writes.
    bool is_write = false;
    bool poisoned = false;    ///< Request poisoned crossing the fabric.
  };

  // A read in flight for one host.
  struct InflightRead {
    std::uint64_t token = 0;
    Cycle start = 0;
    bool busy = false;
  };

  // A DRAM read completion waiting for return-path credit.
  struct PendingResponse {
    Cycle ready = 0;
    std::uint32_t device = 0;  ///< Host-fabric device index.
    std::uint32_t slot = 0;
    bool poisoned = false;     ///< Request-side poison (token bit 63).
  };

  // A coherence transaction parked at a pooled device.
  struct CohTxn {
    bool live = false;
    bool recovery = false;   ///< Directory-recovery inval round: no parked
                             ///< access, no unlock (directory was reset).
    std::uint32_t sdev = 0;  ///< Pooled device (== fabric index on every host).
    Addr page = 0;           ///< Locked directory page (the requester's).
    std::uint64_t send_clean = 0;  ///< Target hosts not yet sent (clean inval).
    std::uint64_t send_dirty = 0;  ///< Ditto, dirty recall.
    std::uint32_t acks_pending = 0;
    std::uint32_t wb_sub = 0;  ///< Where a dirty recall writes its line back.
    Addr wb_line = 0;
    DeviceMsg parked;
    std::uint32_t park_host = 0;
    std::uint32_t park_sub = 0;  ///< Shared sub-channel of the parked access.
  };

  // An invalidation delivered to a host, waiting to be acked. Carries the
  // source device so the acking host shard never reads the pool-owned
  // transaction table.
  struct HostInval {
    Cycle arrival = 0;
    std::uint32_t txn = 0;
    std::uint32_t sdev = 0;
    bool dirty = false;
  };

  // An ack travelling back, delivered to the device side.
  struct DevAck {
    Cycle arrival = 0;
    std::uint32_t txn = 0;
    bool dirty = false;
  };

  // A recalled dirty line waiting for a DRAM write-queue slot.
  struct PendingWb {
    std::uint32_t sub = 0;
    Addr local_line = 0;
  };

  // ---- cross-shard mailbox messages ------------------------------------
  struct DemandMail {
    DeviceMsg msg;
    std::uint32_t sub = 0;  ///< Class-local sub-channel.
  };
  struct CompMail {
    Cycle done = 0;
    std::uint32_t slot = 0;
    bool poisoned = false;
  };
  struct CreditMail {
    Cycle at = 0;
    std::uint32_t sub = 0;  ///< Shared sub-channel, or host * S + shared device.
  };

  /// DRAM read tokens pack (request-poison, host, slot) so the pool shard
  /// never writes into a host-owned read-slot table at admission time.
  static std::uint64_t pack_token(bool poisoned, std::uint32_t host,
                                  std::uint64_t slot) {
    return (std::uint64_t{poisoned} << 63) | (std::uint64_t{host} << 32) | slot;
  }

  /// Whether `host`'s shard sees the planned surprise removal at `now`:
  /// dead_ flips inside the pool pump at fail_at_, so a host first
  /// observes the death at fail_at_ + 1. A pure function of config so host
  /// shards never read the pool-owned dead_ flag.
  bool host_sees_dead(Cycle now) const {
    return avail_on_ && fail_at_ != kNoCycle && now > fail_at_;
  }

  std::uint32_t alloc_slot(std::uint32_t host, std::uint64_t token, Cycle now);
  void finish_read(std::uint32_t host, std::uint32_t slot, Cycle arrival,
                   bool poisoned);
  std::uint32_t alloc_txn();
  /// Both return true while the transaction still has an invalidation to
  /// send (its target's return path was out of credit).
  bool start_txn(const Directory::Decision& d, const DeviceMsg& msg,
                 std::uint32_t host, std::uint32_t shared_sub, Cycle now);
  bool pump_txn_sends(std::uint32_t t, Cycle now);

  // ---- head traffic. Host side: a message posted on a head surfaces in
  // its deliveries (at once on a direct link, at the tick that forwards it
  // off its last hop on a switched one), and every post or tick is
  // followed by a take, so delivery vectors are empty between calls.
  /// Hold a demand host-side while it crosses the head; returns its index.
  std::uint32_t park_down(std::uint32_t host, const DemandMail& dm);
  /// Route `host`'s tx deliveries: shared devices' into the pool's
  /// mailboxes, private devices' into their ingress.
  void take_down(std::uint32_t host);
  /// Route `host`'s rx deliveries: completions and invalidations.
  void take_up(std::uint32_t host);
  // Pool side: a shared device's uplink pipe is the pool's; what it sends
  // lands on the host's side of the head at the barrier.
  bool can_ship(std::uint32_t host, std::uint32_t sdev, Cycle now) const;
  void ship_up(std::uint32_t host, std::uint32_t sdev, std::uint32_t bytes,
               Cycle now, std::uint64_t payload);

  /// Admit a shared demand into its sub-channel's DRAM (directly or as the
  /// completion of a parked transaction).
  void admit_shared(dram::Controller& ctrl, const DeviceMsg& msg,
                    std::uint32_t host, Cycle now);
  /// Phase F, shared half: ship pooled-device responses up `host`'s head.
  Cycle ship_shared_responses(std::uint32_t host, Cycle now);
  /// Wake bound of the responses still parked after a shipping pass, folded
  /// into `wake`; returns their earliest ready cycle. A ready response
  /// retries when its uplink pipe has credit again, or next cycle.
  static Cycle park_wake(const fabric::Fabric& fab,
                         const std::vector<PendingResponse>& pending, Cycle now,
                         Cycle& wake);

  // ---- device failure: surprise removal of a shared device (§13) ----
  /// Onset sweep + recovery-wave pump; returns a wake bound (fail_at
  /// pre-death, now + 1 while recovery transactions remain queued).
  Cycle pump_pool_failure(Cycle now);
  void pool_fail_onset(Cycle now);
  /// Poison-complete a read headed for (or stranded at) the dead device;
  /// absorb a write. `host` owns the message's read slot. The bounce pays
  /// an extra unloaded response latency (the host port's timeout
  /// synthesises the error response), which also keeps its completion
  /// outside the quantum it was created in.
  void bounce_msg(std::uint32_t host, const DeviceMsg& msg, Cycle at);

  PoolConfig cfg_;
  std::uint32_t n_hosts_ = 0;
  std::uint32_t spd_ = 0;       ///< Sub-channels per device.
  std::uint32_t s_devs_ = 0;    ///< Pooled devices (fabric indices [0, S)).
  std::uint32_t p_devs_ = 0;    ///< Private devices per host ([S, S+P)).
  std::uint32_t s_subs_ = 0;    ///< s_devs_ * spd_.
  std::uint32_t p_subs_ = 0;    ///< p_devs_ * spd_.
  bool force_tick_ = false;

  // Address decode: stage 1 per host (shared-window range decode), stage 2
  // per device class. Lookups are pure (no mutable state), so host shards
  // may translate concurrently.
  std::vector<placement::AddressMap> stage1_;
  placement::AddressMap shared_map_;   ///< kPage over pooled devices.
  placement::AddressMap private_map_;  ///< kLine over private devices.

  // Per host. A head belongs to its host shard, except the shared devices'
  // uplink pipes, which the pool shard ships on (Fabric::inject_rx).
  std::vector<std::unique_ptr<fabric::Fabric>> fab_;

  // DRAM: pooled controllers are global (pool shard), private ones per
  // host (host shard).
  std::vector<std::unique_ptr<dram::Controller>> shared_ctrls_;  ///< [s_subs_].
  std::vector<std::vector<std::unique_ptr<dram::Controller>>> priv_ctrls_;

  // Ingress: pooled subs keep one queue per host (merged at admission by
  // earliest arrival, host index breaking ties); private subs one queue.
  std::vector<std::vector<std::deque<DeviceMsg>>> shared_ingress_;  ///< [sub][host].
  std::vector<std::vector<std::deque<DeviceMsg>>> priv_ingress_;    ///< [host][sub].
  std::vector<Cycle> shared_wake_;               ///< Per pooled sub.
  /// [sub][host]: the device's unlock epoch at which the directory blocked
  /// that ingress head. While the epoch still matches, the head is parked:
  /// skipped without access() and arming no wake (DESIGN.md §12). The
  /// epoch must move before the head can leave, so a mark never outlives
  /// its head.
  std::vector<std::vector<std::uint64_t>> parked_at_;
  std::vector<std::vector<Cycle>> priv_wake_;    ///< [host][sub].
  /// [host][sub]: private demands still crossing the head (they own their
  /// ingress slot from send time).
  std::vector<std::vector<std::uint32_t>> tx_inflight_priv_;
  /// Per host: demands crossing the head, indexed by their wire payload,
  /// with a free list (host shard).
  std::vector<std::vector<DemandMail>> down_msgs_;
  std::vector<std::vector<std::uint32_t>> down_free_;

  // Per-host read slots and return-path queues (host shard).
  std::vector<std::vector<InflightRead>> inflight_;     ///< [host][slot].
  std::vector<std::vector<std::uint32_t>> free_slots_;  ///< [host].
  std::vector<std::vector<PendingResponse>> pending_rx_;      ///< Shared class.
  std::vector<std::vector<PendingResponse>> pending_rx_priv_; ///< Private class.
  // Earliest `ready` in each host's pending_rx_ / pending_rx_priv_
  // (kNoCycle when empty): while it lies in the future the response pass
  // is skipped (unless ticking is forced), its wake contribution being
  // exactly this cycle.
  std::vector<Cycle> pending_rx_ready_;
  std::vector<Cycle> pending_rx_priv_ready_;
  std::vector<std::vector<HostCompletion>> out_;
  std::vector<std::uint64_t> inflight_reads_;  ///< Per host (owner-written).

  // Coherence machinery (pool shard; host_invals_ belongs to the hosts).
  std::vector<std::unique_ptr<Directory>> dirs_;  ///< Per pooled device.
  std::vector<CohTxn> txns_;
  std::vector<std::uint32_t> free_txns_;
  std::vector<std::uint32_t> txns_per_dev_;
  std::uint32_t live_txns_ = 0;
  std::vector<std::vector<HostInval>> host_invals_;  ///< [host].
  std::vector<DevAck> dev_acks_;
  std::vector<PendingWb> pending_wbs_;

  // ---- engine mailboxes + flow-control credits -------------------------
  // Outboxes are appended by their owning shard during a quantum and
  // drained only at barriers, so they need no locking. Credits replace
  // reads across the cut. Each (host, shared sub) pair starts with the
  // pooled ingress depth; a send consumes one, and the pool's pop returns
  // it one unloaded response-path control latency later. Each (host,
  // shared device) pair starts with the landing port's depth (unbounded on
  // a direct link); a ship consumes one, and the host's switch returns it
  // one device-segment latency after forwarding the message on.
  std::vector<std::vector<DemandMail>> mail_demand_;   ///< [host] -> pool.
  std::vector<std::vector<DevAck>> mail_ack_;          ///< [host] -> pool.
  std::vector<std::vector<CreditMail>> mail_port_credit_;  ///< [host] -> pool.
  std::vector<std::vector<fabric::FabricMsg>> mail_up_;    ///< pool -> [host].
  std::vector<std::vector<CompMail>> mail_comp_;       ///< pool -> [host].
  std::vector<std::vector<CreditMail>> mail_credit_;   ///< pool -> [host].
  std::vector<std::vector<CreditMail>> pending_credits_;  ///< Delivered, maturing.
  std::vector<std::vector<std::uint64_t>> credits_;    ///< [host][shared sub].
  std::vector<CreditMail> pending_port_credits_;  ///< Pool-side, maturing.
  std::vector<std::uint64_t> port_credits_;  ///< [host * s_devs_ + shared dev].
  Cycle credit_lat_ = 1;       ///< Pop -> credit visible at the host.
  Cycle port_credit_lat_ = 1;  ///< Forward -> credit visible at the pool.
  Cycle bounce_rx_lat_ = 1;    ///< Extra response latency on bounces.

  // Device-failure state (DESIGN.md §13). `dead_` flips only inside the
  // pool pump at the planned cycle — pump_pool_failure() returns fail_at_
  // as a wake bound until then — so both scheduler modes observe the flip
  // at the same cycle and every live query of it stays mode-invariant.
  // Host shards use host_sees_dead() instead of reading dead_.
  bool avail_on_ = false;       ///< fault_plan.device_failure(), cached.
  bool dead_ = false;           ///< The shared device is gone.
  std::uint32_t fail_dev_ = 0;  ///< Shared-device (== fabric) index.
  Cycle fail_at_ = kNoCycle;
  Cycle bounce_cycles_ = 1;  ///< Unloaded round trip: refused-read latency.
  /// Directory-recovery backlog: (page, sharer mask) waves bounded by the
  /// per-device transaction table.
  std::deque<std::pair<Addr, std::uint64_t>> recovery_q_;

  // Counters, split by owning shard and merged at exposure. avail_ and
  // ctr_ belong to the pool shard; the *_host_ / host-indexed pieces to
  // their host shard.
  ras::AvailCounters avail_;                      ///< Pool-shard half.
  std::vector<ras::AvailCounters> avail_host_;    ///< Host-local refusals.
  PoolCounters ctr_;  ///< Pool shard (private_* fields unused — see below).
  struct HostSharedCtr {  ///< Pool-shard writes, per requesting host.
    std::uint64_t reads = 0, writes = 0, shared = 0;
  };
  struct HostPrivCtr {  ///< Host-shard writes.
    std::uint64_t reads = 0, writes = 0;
  };
  struct HostAckCtr {  ///< Host-shard writes.
    std::uint64_t invals_received = 0, acks_sent = 0;
  };
  std::vector<HostSharedCtr> host_shared_ctr_;
  std::vector<HostPrivCtr> host_priv_ctr_;
  std::vector<HostAckCtr> host_ack_ctr_;
};

}  // namespace coaxial::pool
