// Full-system assembly and cycle loop: cores + private L1D/L2 + distributed
// shared non-inclusive LLC + 2D-mesh NoC latency + CALM + memory system.
//
// L1 hits are handled inline; everything below L1 flows through a small
// event heap (L2 lookup, LLC lookup/response, memory arrival), which keeps
// per-cycle work proportional to actual memory traffic.
//
// Why single-host runs stay sequential: that payload heap's same-cycle
// ordering (heap insertion order) is results-affecting global state that a
// partition would have to reproduce exactly. The sharded parallel pump
// (DESIGN.md §14, sim/shard.hpp) therefore targets sim::PooledSystem, whose
// per-host slices own disjoint state by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "coaxial/calm.hpp"
#include "coaxial/configs.hpp"
#include "coaxial/memory_system.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/core.hpp"
#include "noc/mesh.hpp"
#include "obs/metrics.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace coaxial::sim {

/// Measurement-window results of one simulation.
struct RunStats {
  Cycle cycles = 0;                    ///< Wall cycles of the window.
  std::uint64_t instructions = 0;      ///< Retired across active cores.
  std::vector<double> core_ipc;        ///< Per active core.
  double ipc_per_core = 0;             ///< Harmonic-consistent average.

  // L2-miss transaction accounting (demand loads + RFOs).
  std::uint64_t l2_miss_ops = 0;
  double lat_total_sum = 0;    ///< Cycles, L2-miss to data-at-core.
  double lat_onchip_sum = 0;   ///< NoC + LLC on the critical path.
  double lat_pending_sum = 0;  ///< Waiting for memory-system admission.
  // Demand-only memory-side components (prefetch traffic excluded), from
  // per-completion breakdowns.
  double lat_dram_service_sum = 0;
  double lat_dram_queue_sum = 0;
  double lat_cxl_interface_sum = 0;
  double lat_cxl_queue_sum = 0;

  std::uint64_t llc_hits = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t prefetches = 0;  ///< Stream prefetches issued in the window.

  // Scheduler activity over the whole run (warmup + measurement): wake-up
  // events dispatched, cycles actually simulated vs skipped outright. All
  // zero in forced tick-every-cycle mode.
  std::uint64_t sched_events = 0;
  std::uint64_t sched_cycles_dispatched = 0;
  std::uint64_t sched_cycles_skipped = 0;
  double sched_skip_ratio() const {
    const double total =
        static_cast<double>(sched_cycles_dispatched + sched_cycles_skipped);
    return total == 0 ? 0.0 : static_cast<double>(sched_cycles_skipped) / total;
  }

  // Demand L2-miss latency percentiles over the window (ns).
  double lat_p50_ns = 0;
  double lat_p90_ns = 0;
  double lat_p99_ns = 0;

  mem::MemorySnapshot mem;  ///< Deltas over the window.
  calm::CalmStats calm;

  double avg_l2_miss_latency_cycles() const {
    return l2_miss_ops == 0 ? 0.0 : lat_total_sum / static_cast<double>(l2_miss_ops);
  }
  double llc_miss_ratio() const {
    const double t = static_cast<double>(llc_hits + llc_misses);
    return t == 0 ? 0.0 : static_cast<double>(llc_misses) / t;
  }
  /// LLC misses per kilo-instruction (the Table IV metric).
  double llc_mpki() const {
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(llc_misses) / static_cast<double>(instructions);
  }
  double read_gbps() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(mem.reads) * kLineBytes /
                             (static_cast<double>(cycles) * kNsPerCycle);
  }
  double write_gbps() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(mem.writes) * kLineBytes /
                             (static_cast<double>(cycles) * kNsPerCycle);
  }
  double bandwidth_utilization() const { return mem.utilization(cycles); }

  // Per-demand-op average latency components, in ns (Fig. 5 middle).
  // Prefetch traffic is excluded here; it still appears in `mem`'s
  // aggregate sums and in bandwidth/utilisation figures.
  double avg_onchip_ns() const { return avg_ns(lat_onchip_sum); }
  double avg_pending_ns() const { return avg_ns(lat_pending_sum); }
  double avg_dram_service_ns() const { return avg_ns(lat_dram_service_sum); }
  double avg_dram_queue_ns() const { return avg_ns(lat_dram_queue_sum); }
  double avg_cxl_interface_ns() const { return avg_ns(lat_cxl_interface_sum); }
  double avg_cxl_queue_ns() const { return avg_ns(lat_cxl_queue_sum); }
  double avg_total_ns() const { return avg_ns(lat_total_sum); }

 private:
  double avg_ns(double sum_cycles) const {
    return l2_miss_ops == 0 ? 0.0
                            : cycles_to_ns(static_cast<Cycle>(1)) * sum_cycles /
                                  static_cast<double>(l2_miss_ops);
  }
};

class System : public core::MemoryPort {
 public:
  /// `per_core_workloads` must contain exactly `cfg.uarch.cores` entries
  /// (inactive cores' entries are ignored).
  System(const sys::SystemConfig& cfg,
         const std::vector<workload::WorkloadParams>& per_core_workloads,
         std::uint64_t seed = 42);

  /// Trace-driven construction: one instruction source per core plus its
  /// IPC ceiling. Cache pre-warm is skipped (a trace's address layout is
  /// unknown); use a longer timed warmup instead.
  System(const sys::SystemConfig& cfg,
         std::vector<std::unique_ptr<workload::InstrSource>> sources,
         const std::vector<double>& max_ipc, std::uint64_t seed = 42);
  ~System() override;

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Warm up, reset stats, then run until every active core retires
  /// `measure_instr` more instructions.
  void run(std::uint64_t warmup_instr, std::uint64_t measure_instr);

  /// Disable idle-cycle skipping: advance every component every cycle (the
  /// pre-scheduler reference loop). Call before run(); run_one() applies
  /// RunRequest::tick_every_cycle here. Used by the event-driven-vs-lockstep
  /// equivalence tests and for A/B timing.
  void set_tick_every_cycle(bool v);
  bool tick_every_cycle() const { return tick_every_cycle_; }

  const RunStats& stats() const { return stats_; }
  const sys::SystemConfig& config() const { return cfg_; }

  // MemoryPort (called by cores).
  core::IssueResult issue_load(std::uint32_t core, Addr addr, Addr pc,
                               std::uint64_t waiter, Cycle now) override;
  core::IssueResult issue_store(std::uint32_t core, Addr addr, Addr pc,
                                std::uint64_t waiter, Cycle now) override;

  /// Current simulated cycle (for tests).
  Cycle now() const { return now_; }

  /// Cumulative DRAM activity counters (for the power model).
  dram::ControllerStats dram_activity() const { return memory_->aggregate_dram_stats(); }

  /// The memory system (for tests and power accounting).
  const mem::MemorySystem& memory() const { return *memory_; }

  /// The metrics registry every component registered into at construction.
  /// `metrics().snapshot()` after run() yields the full stats tree
  /// (including the `run/` subtree of window results published by run()).
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  enum class EventKind : std::uint8_t {
    kL2Lookup,
    kLlcResult,
    kMemIssue,
    kMemArrive,
    kOpFinish,
    kL1Fill,
  };

  struct Event {
    Cycle cycle;
    EventKind kind;
    std::uint32_t a;  ///< Op id, or core id for kL1Fill.
    Addr line;        ///< Used by kL2Lookup / kL1Fill.
    std::uint64_t aux;  ///< PC for kL2Lookup; finish time semantics vary.
    bool operator>(const Event& o) const { return cycle > o.cycle; }
  };

  struct MemOp {
    Addr line = 0;
    Addr pc = 0;
    std::uint32_t core = 0;
    std::uint32_t port = 0;
    bool calm = false;
    bool prefetch = false;  ///< L2 stream prefetch: fills caches, wakes no one.
    bool mem_poisoned = false;  ///< RAS: the memory response carried poison.
    bool llc_hit = false;
    bool llc_resolved = false;
    bool mem_arrived = false;
    bool finished = false;
    bool free = false;
    Cycle t_start = 0;         ///< L2-miss time.
    Cycle t_mem_attempt = 0;   ///< First admission attempt.
    Cycle t_mem_issued = 0;
    Cycle llc_leg_at_core = 0; ///< When the LLC response reaches the core.
    Cycle mem_leg_at_core = 0;
    Cycle onchip_cycles = 0;   ///< Deterministic NoC+LLC component.
    // Memory-side breakdown of this op's own read (from MemCompletion).
    Cycle mem_dram_service = 0;
    Cycle mem_dram_queue = 0;
    Cycle mem_cxl_interface = 0;
    Cycle mem_cxl_queue = 0;
  };

  /// Ops parked for memory admission, with the resource they wait on.
  enum class PendingStage : std::uint8_t { kNeedLlcMshr, kNeedAdmission };
  struct PendingMem {
    std::uint32_t op = 0;
    PendingStage stage = PendingStage::kNeedAdmission;
  };

  // ---- wake-up spine (discrete-event loop; see DESIGN.md) ----
  //
  // Each simulated cycle has three phases, replayed in the legacy order:
  // payload events drain first, then the memory pump, then cores in index
  // order. The System's schedulables are a small fixed set (one event
  // drain, one pump, one slot per core), so instead of a priority heap the
  // spine keeps one pending wake-up cycle per slot: arming is a min, the
  // next populated cycle is a min-scan over ~n_cores slots, and dispatch
  // rescans in phase order after every handler — exactly the repeated
  // min-extraction a (cycle, priority) heap performs, since each slot has
  // a unique phase priority. This removes heap push/pop/tombstone traffic
  // from the hottest loop in the simulator.

  /// At most one pending wake-up per phase slot; arm() dedupes by keeping
  /// the earlier of the armed and requested cycles, and dispatch clears the
  /// slot (at = kNoCycle) before invoking the handler.
  struct WakeSlot {
    Cycle at = kNoCycle;
  };

  void arm(WakeSlot& slot, Cycle cycle) {
    // In forced mode the main loop drives every phase every cycle itself.
    if (tick_every_cycle_ || cycle == kNoCycle) return;
    if (cycle < slot.at) slot.at = cycle;
  }
  Cycle next_wake_cycle() const;
  void dispatch_due(Cycle now);
  void wake_events(Cycle now);
  void wake_pump(Cycle now);
  void wake_core(std::uint32_t c, Cycle now);

  void schedule(Cycle cycle, EventKind kind, std::uint32_t a, Addr line = 0,
                std::uint64_t aux = 0);
  void handle_event(const Event& ev);
  void handle_l2_lookup(Cycle t, std::uint32_t core, Addr line, Addr pc);
  void maybe_prefetch(Cycle t, std::uint32_t core, Addr line);
  void issue_l2_miss_op(Cycle t, std::uint32_t core, Addr line, Addr pc, bool prefetch);
  void handle_llc_result(Cycle t, std::uint32_t op_id);
  void handle_mem_arrive(Cycle t, std::uint32_t op_id);
  void finish_op(Cycle t, std::uint32_t op_id, bool data_from_memory);
  void fill_l1(std::uint32_t core, Addr line, Cycle t);
  void fill_llc_from_memory(std::uint32_t op_id, Cycle t);
  void l2_victim(std::uint32_t core, const cache::Eviction& ev, Cycle t);
  void llc_victim(std::uint32_t slice, const cache::Eviction& ev, Cycle t);
  void park_pending_mem(std::uint32_t op_id, PendingStage stage, Cycle t);
  void pump_memory(Cycle now);
  std::uint32_t alloc_op();
  void free_op(std::uint32_t id);
  void maybe_free_joined_op(std::uint32_t id);
  void reset_window_stats();
  void collect_window_stats();
  void publish_run_metrics();
  void prewarm_caches(std::uint64_t seed);
  void build_shared_structures();

  std::uint32_t llc_slice(Addr line) const { return mesh_.home_tile(line) % n_slices_; }

  sys::SystemConfig cfg_;
  noc::Mesh mesh_;
  std::uint32_t n_slices_;
  std::uint64_t seed_;
  std::vector<workload::WorkloadParams> wl_params_;

  /// Declared before the components so probes registered by them are
  /// destroyed (with the registry) only after the components they sample.
  obs::MetricsRegistry metrics_;

  std::vector<std::unique_ptr<core::Core>> cores_;
  std::vector<std::unique_ptr<cache::Cache>> l1_;
  std::vector<std::unique_ptr<cache::Mshr>> l1_mshr_;
  std::vector<std::unique_ptr<cache::Cache>> l2_;
  std::vector<std::unique_ptr<cache::Mshr>> l2_mshr_;
  std::vector<std::unique_ptr<cache::Cache>> llc_;
  std::vector<std::unique_ptr<cache::Mshr>> llc_mshr_;
  std::unique_ptr<mem::MemorySystem> memory_;
  std::unique_ptr<calm::Decider> calm_;
  std::vector<std::uint32_t> port_tile_;  ///< NoC tile of each memory port.

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::vector<MemOp> ops_;
  std::vector<std::uint32_t> free_ops_;
  std::vector<PendingMem> pending_mem_;  ///< Ops awaiting memory admission.
  std::vector<Addr> pending_wb_;         ///< LLC dirty victims awaiting issue.

  // Wake-up spine state. The legacy payload-event heap (events_) keeps its
  // cycle-only ordering — same-cycle pop order there is results-affecting —
  // while the slots carry idempotent component wake-ups only.
  bool tick_every_cycle_ = false;
  bool ras_enabled_ = false;  ///< cfg_.fault_plan.enabled(), cached.
  bool in_events_drain_ = false;
  WakeSlot events_slot_;
  WakeSlot pump_slot_;
  std::vector<WakeSlot> core_slots_;
  std::uint64_t sched_dispatches_ = 0;  ///< Handler invocations (telemetry).
  std::uint64_t sched_cycles_dispatched_ = 0;
  std::uint64_t sched_cycles_skipped_ = 0;

  Cycle now_ = 0;
  Cycle window_start_ = 0;
  mem::MemorySnapshot snap_at_window_;
  RunStats stats_;

  /// Per-core stream-prefetcher state: last line of each tracked stream.
  std::vector<std::vector<Addr>> stream_table_;
  std::vector<std::uint32_t> stream_victim_;
  std::uint64_t prefetches_issued_ = 0;

  // Window accumulators: registry-owned instruments under `run/` (set up in
  // build_shared_structures; RunStats is materialised from them at
  // collect_window_stats time).
  obs::Counter* ops_finished_ = nullptr;
  obs::Gauge* lat_total_sum_ = nullptr;
  obs::Gauge* lat_onchip_sum_ = nullptr;
  obs::Gauge* lat_pending_sum_ = nullptr;
  obs::Gauge* lat_dram_service_sum_ = nullptr;
  obs::Gauge* lat_dram_queue_sum_ = nullptr;
  obs::Gauge* lat_cxl_interface_sum_ = nullptr;
  obs::Gauge* lat_cxl_queue_sum_ = nullptr;
  obs::Counter* llc_hits_ = nullptr;
  obs::Counter* llc_misses_ = nullptr;
  std::uint64_t prefetch_window_base_ = 0;
  LatencyHistogram* l2_miss_hist_ = nullptr;
};

}  // namespace coaxial::sim
