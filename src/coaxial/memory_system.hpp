// Memory-system topologies: direct DDR attachment (baseline, Fig. 3a) and
// CXL-attached Type-3 devices (COAXIAL, Fig. 3b).
//
// Both expose the same port-based interface to the on-chip hierarchy: lines
// are striped across all DDR sub-channels at line granularity; each
// topology reports which NoC port a line routes through so the simulation
// layer can add mesh latency. Reads complete asynchronously via drained
// completions (whose `done` cycle may be in the future — the caller
// schedules accordingly); writes are posted with backpressure.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/slot_pool.hpp"
#include "common/units.hpp"
#include "dram/controller.hpp"
#include "fabric/fabric.hpp"
#include "fabric/router.hpp"
#include "link/cxl_link.hpp"
#include "obs/metrics.hpp"
#include "placement/tier_config.hpp"
#include "ras/fault_plan.hpp"

namespace coaxial::mem {

struct MemCompletion {
  std::uint64_t token = 0;
  Cycle done = 0;  ///< May be later than the current cycle.
  // Per-read latency decomposition (cycles), so the consumer can account
  // demand and prefetch traffic separately.
  Cycle dram_service = 0;
  Cycle dram_queue = 0;
  Cycle cxl_interface = 0;  ///< Fixed port + serialisation component.
  Cycle cxl_queue = 0;      ///< Link/device queuing component.
  bool poisoned = false;    ///< Data is poisoned (RAS replay budget exhausted).
};

/// Aggregated snapshot for reporting (averages are over completed reads).
struct MemorySnapshot {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double dram_service_sum = 0;    ///< Cycles: unloaded DRAM service, reads.
  double dram_queue_sum = 0;      ///< Cycles: queuing at DRAM controllers, reads.
  double cxl_interface_sum = 0;   ///< Cycles: fixed CXL port+serialisation, reads.
  double cxl_queue_sum = 0;       ///< Cycles: CXL link/device queuing, reads.
  double data_bus_busy = 0;       ///< Sum of DRAM data-bus busy cycles.
  std::uint64_t subchannels = 0;
  double peak_gbps = 0;           ///< Aggregate DRAM-side peak bandwidth.
  double row_hit_rate = 0;

  /// Average DRAM-side bus utilisation in [0,1] over `elapsed` cycles.
  double utilization(Cycle elapsed) const {
    if (elapsed == 0 || subchannels == 0) return 0.0;
    return data_bus_busy / (static_cast<double>(elapsed) * static_cast<double>(subchannels));
  }

  /// Achieved bandwidth in GB/s over `elapsed` cycles.
  double achieved_gbps(Cycle elapsed) const {
    if (elapsed == 0) return 0.0;
    const double bytes = static_cast<double>(reads + writes) * kLineBytes;
    return bytes / (static_cast<double>(elapsed) * kNsPerCycle);
  }
};

class MemorySystem {
 public:
  virtual ~MemorySystem() = default;

  /// Backpressure check for the port a line maps to.
  virtual bool can_accept(Addr line, bool is_write, Cycle now) const = 0;

  /// Issue an access. Reads echo `token` in a completion; writes are posted.
  virtual void access(Addr line, bool is_write, Cycle now, std::uint64_t token) = 0;

  /// Advance controllers/devices by one cycle. Returns the earliest future
  /// cycle at which any internal component could act (conservative lower
  /// bound); the caller need not tick again before then unless it issues a
  /// new access in the meantime.
  virtual Cycle tick(Cycle now) = 0;

  /// Disable the per-sub-channel wake caching so every tick() advances
  /// every controller (the pre-scheduler reference behaviour, used by the
  /// event-driven-vs-forced equivalence test).
  virtual void set_force_tick(bool force) = 0;

  /// Completions produced since the last drain (caller takes ownership).
  virtual std::vector<MemCompletion>& completions() = 0;

  /// How far past the draining cycle a completion's `done` typically lies
  /// (the unloaded response path), for sizing the caller's event queue.
  virtual Cycle completion_lead() const { return 0; }

  /// Number of NoC-visible memory ports and the port a line routes through.
  virtual std::uint32_t ports() const = 0;
  virtual std::uint32_t port_of(Addr line) const = 0;

  virtual MemorySnapshot snapshot() const = 0;
  virtual void reset_stats() = 0;

  /// Aggregate DRAM-side peak bandwidth (GB/s), for utilisation targets.
  virtual double peak_gbps() const = 0;

  /// DRAM activity counters for the power model (aggregated).
  virtual dram::ControllerStats aggregate_dram_stats() const = 0;

  /// Aggregated RAS events (all-zero for topologies without fault support
  /// or with faults disabled).
  virtual ras::RasCounters ras_counters() const { return {}; }

  /// Aggregated placement/migration events (all-zero unless the system is
  /// a placement::TieredMemory with tiering enabled).
  virtual placement::TierCounters tier_counters() const { return {}; }

  // ---- Device-failure lifecycle (DESIGN.md §13; inert defaults) ----------

  /// Availability events (all-zero without a device-failure episode).
  virtual ras::AvailCounters avail_counters() const { return {}; }

  /// Current health/offlining state of the planned failure episode.
  virtual ras::FailureStatus failure_status() const { return {}; }

  /// Evacuation handshake: the placement layer finished moving pages off
  /// `device`; the device may stop accepting work and drain to kDead.
  virtual void offline_device(std::uint32_t device) { (void)device; }

  /// When set (before the episode onset), a monitor trip parks the device
  /// in kEvacuating — still serving, waiting for offline_device() — instead
  /// of draining immediately. The placement layer sets this when it owns
  /// the evacuation.
  virtual void set_offline_hold(bool hold) { (void)hold; }

  /// Device index a line routes to (0 for single-device topologies). Used
  /// by the evacuation policy to find pages homed on the failing device.
  virtual std::uint32_t device_of_line(Addr line) const {
    (void)line;
    return 0;
  }
};

/// Fold one controller-stats sample into an aggregate.
void accumulate(dram::ControllerStats& into, const dram::ControllerStats& from);

/// Register the aggregate read/write/latency/bandwidth probes every
/// topology exposes at its scope root (sampled from snapshot() lazily).
void register_aggregate_probes(const obs::Scope& scope, const MemorySystem& mem);

/// Baseline: `channels` DDR5 channels (2 sub-channels each) on package pins.
class DirectDdrMemory final : public MemorySystem {
 public:
  /// `scope`, when valid, registers per-sub-channel controller metrics under
  /// `dram/ctrlNN` plus aggregate read/write/bandwidth probes.
  explicit DirectDdrMemory(std::uint32_t channels, const dram::Timing& timing = {},
                           const dram::Geometry& geometry = {}, obs::Scope scope = {});

  bool can_accept(Addr line, bool is_write, Cycle now) const override;
  void access(Addr line, bool is_write, Cycle now, std::uint64_t token) override;
  Cycle tick(Cycle now) override;
  void set_force_tick(bool force) override { force_tick_ = force; }
  std::vector<MemCompletion>& completions() override { return out_; }
  Cycle completion_lead() const override { return completion_lead_; }
  std::uint32_t ports() const override { return channels_; }
  std::uint32_t port_of(Addr line) const override {
    return static_cast<std::uint32_t>(line % subchannels()) / 2;
  }
  MemorySnapshot snapshot() const override;
  void reset_stats() override;
  double peak_gbps() const override { return channels_ * dram::kChannelPeakGBps; }
  dram::ControllerStats aggregate_dram_stats() const override;

  std::uint32_t subchannels() const { return static_cast<std::uint32_t>(ctrls_.size()); }
  const dram::Controller& controller(std::uint32_t i) const { return *ctrls_[i]; }

 private:
  std::uint32_t channels_;
  Cycle completion_lead_;  ///< CAS latency + burst past the CAS tick.
  std::vector<std::unique_ptr<dram::Controller>> ctrls_;
  std::vector<Cycle> ctrl_wake_;  ///< Next cycle each controller could act.
  std::vector<MemCompletion> out_;
  bool force_tick_ = false;
};

/// COAXIAL: Type-3 devices hosting `ddr_per_device` DDR5 channels each
/// (1 normally, 2 for COAXIAL-asym), reached through a fabric::Fabric —
/// direct x8 CXL links by default, or switched star/tree topologies with
/// more devices than root ports. Cross-device placement is the stage-2
/// fabric::Router (per-line by default; per-page / contiguous for the
/// switched configs).
class CxlMemory final : public MemorySystem {
 public:
  /// Topology and interleaving from `fab` (zero counts inherit
  /// `cxl_channels`; FabricConfig::direct() gives one x8 link per device);
  /// the stage-2 Router is built from `fab`'s interleave fields over the
  /// resolved device count. `scope`, when valid, registers per-link metrics
  /// under `cxl/linkNN`, per-sub-channel controller metrics under
  /// `dram/ctrlNN`, and aggregate read/write/bandwidth probes; switched
  /// fabrics add per-switch/per-port metrics under `fabric/*`. A `plan`
  /// with faults enabled arms CRC/replay/
  /// down-training on every fabric segment, device stall windows, and the
  /// request-timeout watchdog (DESIGN.md §7).
  CxlMemory(const fabric::FabricConfig& fab, std::uint32_t cxl_channels,
            std::uint32_t ddr_per_device, const link::LaneConfig& lanes,
            const dram::Timing& timing = {}, const dram::Geometry& geometry = {},
            obs::Scope scope = {}, const ras::FaultPlan& plan = {});

  bool can_accept(Addr line, bool is_write, Cycle now) const override;
  void access(Addr line, bool is_write, Cycle now, std::uint64_t token) override;
  Cycle tick(Cycle now) override;
  void set_force_tick(bool force) override { force_tick_ = force; }
  std::vector<MemCompletion>& completions() override { return out_; }
  std::uint32_t ports() const override { return fabric_->host_links(); }
  std::uint32_t port_of(Addr line) const override {
    return fabric_->root_port_of(router_.device_of(line));
  }
  MemorySnapshot snapshot() const override;
  void reset_stats() override;
  double peak_gbps() const override {
    return static_cast<double>(n_devices_ * ddr_per_device_) * dram::kChannelPeakGBps;
  }
  dram::ControllerStats aggregate_dram_stats() const override;

  std::uint32_t devices() const { return n_devices_; }
  std::uint32_t subchannels() const { return n_devices_ * subchannels_per_device_; }
  const fabric::Fabric& fabric() const { return *fabric_; }
  /// Direct-topology accessor for the per-channel link (legacy tests/benches).
  const link::CxlLink& channel_link(std::uint32_t i) const {
    return fabric_->direct_link(i);
  }

  /// Fixed unloaded read overhead of the CXL path, in cycles (≈52.5 ns for
  /// a direct x8 link; switched topologies add 2 switch-port traversals
  /// plus one re-serialisation per hop each way).
  Cycle read_interface_cycles() const { return fixed_read_overhead_; }
  Cycle completion_lead() const override { return fixed_read_overhead_; }

  const ras::FaultPlan& fault_plan() const { return plan_; }
  ras::RasCounters ras_counters() const override;

  // ---- Device-failure lifecycle (DESIGN.md §13) --------------------------
  ras::AvailCounters avail_counters() const override { return avail_; }
  ras::FailureStatus failure_status() const override {
    return {fail_phase_, plan_.fail_device};
  }
  void offline_device(std::uint32_t device) override;
  void set_offline_hold(bool hold) override { offline_hold_ = hold; }
  std::uint32_t device_of_line(Addr line) const override {
    return router_.device_of(line);
  }

 private:
  struct DeviceMsg {
    Cycle arrival = 0;
    Addr local_line = 0;
    std::uint64_t token = 0;
    bool is_write = false;
    bool poisoned = false;  ///< Request corrupted beyond replay en route.
    bool dup = false;       ///< Watchdog duplicate: dropped at admission.
  };
  struct PendingResponse {
    Cycle ready = 0;
    std::uint64_t token = 0;
    Cycle dram_service = 0;
    Cycle dram_queue = 0;
  };
  struct InflightRead {
    std::uint64_t token = 0;  ///< The caller's access() token.
    Cycle start = 0;
    Cycle device_arrival = 0;
    Cycle dram_enqueue = 0;
    // DRAM-side results, staged here when the response is posted and read
    // back when its delivery completes the read at the host.
    Cycle dram_ready = 0;
    Cycle dram_service = 0;
    Cycle dram_queue = 0;
    // RAS state: the watchdog deadline (kNoCycle = unwatched/free slot),
    // reissues so far, and the route needed to reissue a duplicate.
    Cycle deadline = kNoCycle;
    std::uint32_t reissues = 0;
    bool dup_pending = false;   ///< Deadline expired, duplicate not yet sent.
    bool req_poisoned = false;  ///< Request arrived poisoned; response inherits.
    std::uint32_t device = 0;
    std::uint32_t sub = 0;
    Addr local_line = 0;
  };
  /// Request payload parked while the request crosses the fabric; its pool
  /// index is the Delivery's payload cookie.
  struct FabricTxMsg {
    Addr local_line = 0;
    std::uint32_t slot = 0;  ///< The read's inflight slot (0 for writes).
    std::uint32_t sub = 0;
    bool is_write = false;
    bool dup = false;
  };

  std::uint32_t ddr_per_device_;
  std::uint32_t subchannels_per_device_;
  std::uint32_t n_devices_ = 0;
  link::LaneConfig lane_cfg_;
  Cycle fixed_read_overhead_ = 0;
  ras::FaultPlan plan_;
  ras::RasCounters ras_dev_;  ///< Device/watchdog events (timeouts, dups, ...).

  std::unique_ptr<fabric::Fabric> fabric_;
  fabric::Router router_;  ///< Stage-2 placement.
  std::vector<std::unique_ptr<dram::Controller>> ctrls_;           // per sub-channel
  std::vector<std::deque<DeviceMsg>> device_ingress_;              // per sub-channel
  std::vector<Cycle> sub_wake_;  // next cycle each sub-channel could act
  // Per sub-channel: requests posted to the fabric and not yet drained into
  // the device ingress. Each already owns an ingress slot.
  std::vector<std::uint32_t> fabric_tx_inflight_;
  std::vector<std::vector<PendingResponse>> pending_responses_;    // per device
  // Per device: the earliest `ready` among its parked responses (kNoCycle
  // when none). While it lies in the future the device's send and wake
  // loops are skipped (unless ticking is forced); it is exact, so skipping
  // changes nothing.
  std::vector<Cycle> pending_ready_;
  bool force_tick_ = false;
  std::vector<MemCompletion> out_;
  SlotPool<InflightRead> inflight_;  // read slots: the DRAM token
  SlotPool<FabricTxMsg> fmsgs_;     // in-fabric request cookies

  // Read-latency decomposition accumulators (see MemorySnapshot).
  double cxl_interface_sum_ = 0;
  double cxl_queue_sum_ = 0;
  double dram_internal_sum_ = 0;  // redundant check vs controller sums
  std::uint64_t reads_done_ = 0;

  // Device-failure lifecycle state (DESIGN.md §13). All mutations happen in
  // tick()/access() at deterministic cycles; can_accept stays pure.
  bool avail_on_ = false;  ///< plan_.device_failure(), cached.
  ras::FailureStatus::Phase fail_phase_ = ras::FailureStatus::Phase::kNone;
  bool offline_hold_ = false;   ///< Placement layer owns the evacuation.
  bool hard_dead_ = false;      ///< Surprise removal (vs drained offline).
  std::uint64_t fail_stream_ = 0;  ///< Counter-based read-error draw stream.
  std::uint64_t fail_draws_ = 0;
  Cycle next_health_sample_ = kNoCycle;
  double health_ewma_ = 0.0;
  std::uint64_t win_errors_ = 0, win_reads_ = 0;  ///< Current monitor window.
  std::vector<std::uint32_t> sub_reads_outstanding_;  ///< Reads inside DRAM.
  ras::AvailCounters avail_;

  /// New demand work to `dev` is refused: reads poison-complete at the host
  /// root port, writes are lost (kDraining and kDead).
  bool dev_refuses(std::uint32_t dev) const {
    return avail_on_ && dev == plan_.fail_device &&
           fail_phase_ >= ras::FailureStatus::Phase::kDraining;
  }
  /// The device is gone: everything still queued or arriving bounces.
  bool dev_dead(std::uint32_t dev) const {
    return avail_on_ && dev == plan_.fail_device &&
           fail_phase_ == ras::FailureStatus::Phase::kDead;
  }
  /// Reads on `dev` draw against the escalating failing-device error rate.
  bool dev_failing(std::uint32_t dev) const {
    return avail_on_ && dev == plan_.fail_device &&
           (fail_phase_ == ras::FailureStatus::Phase::kFailing ||
            fail_phase_ == ras::FailureStatus::Phase::kEvacuating);
  }
  /// Episode onset + monitor sampling + drain-to-dead transitions; returns
  /// a conservative wake bound for the episode machinery.
  Cycle pump_failure(Cycle now);
  void fail_onset(Cycle now);
  /// Poison-complete a read at `done` without touching the fabric, counting
  /// it as bounced; writes are counted lost by the callers directly.
  void bounce_read(std::uint32_t slot, Cycle done);

  /// Post a request (access() or a watchdog duplicate) to `device`; it
  /// holds its ingress slot from here until take_tx() admits it.
  void post_request(std::uint32_t device, const FabricTxMsg& msg, std::uint32_t bytes,
                    Cycle now);
  /// Drain the fabric's deliveries: requests into the device ingress (or
  /// bounced at a dead device), responses into finish_read().
  void take_tx(Cycle now);
  void take_rx();
  /// Emit the completion + latency decomposition for a read whose response
  /// reaches the host at `arrival` (identical math on both fabric shapes).
  /// `wire_poisoned` marks poison picked up on the return path; the
  /// completion is also poisoned when the request arrived poisoned.
  void finish_read(std::uint32_t slot, Cycle arrival, bool wire_poisoned = false);
  /// Timeout watchdog: reissue duplicate requests for expired reads with
  /// capped exponential backoff. Returns a conservative wake bound.
  Cycle pump_watchdog(Cycle now);
};

}  // namespace coaxial::mem
