// Open-loop service driver: seeded arrival processes feeding a MemorySystem
// directly, with per-request injection-to-completion latency tracking and an
// SLO harness.
//
// Where System models cores whose request rate is throttled by the memory
// system (closed loop), ServiceDriver models service traffic: `tenants`
// independent arrival streams (Poisson or MMPP) each offering a configured
// fraction of the memory system's peak bandwidth, regardless of how the
// memory system keeps up. Requests that cannot be admitted queue per tenant;
// generated vs admitted counts, regulation stalls and backpressure stalls
// are all reported separately, so saturation is visible as a growing
// generated-admitted gap rather than silently squashed load.
//
// Per-read latency (admission wait + memory service, measured from arrival
// to completion `done` cycle) feeds per-tenant FixedHistograms exported
// under `svc/*` in the coaxial-stats-v1 schema — registered only when the
// driver exists, so the golden (closed-loop) stats tree is untouched.
//
// Determinism contract: results are byte-identical for identical
// (SystemConfig, ServiceConfig, seed), and identical between the
// event-driven loop and lockstep (RunRequest::tick_every_cycle). Everything is
// keyed off arrival/admission/`done` cycles (mode-invariant quantities);
// the driver never reads "which cycle did the host happen to look".
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "coaxial/calm.hpp"
#include "coaxial/configs.hpp"
#include "coaxial/memory_system.hpp"
#include "common/histogram.hpp"
#include "common/slot_pool.hpp"
#include "obs/metrics.hpp"
#include "workload/arrival.hpp"

namespace coaxial::sim {

/// One declared service-level objective: "quantile q of this tenant's
/// latency distribution must be <= target_ns".
struct SloTarget {
  double quantile = 0.99;
  double target_ns = 1000.0;
};

/// One open-loop traffic source plus its declared objectives.
struct ServiceTenant {
  workload::ArrivalConfig arrival;
  std::vector<SloTarget> slo;  ///< May be empty (no objectives declared).
};

struct ServiceConfig {
  std::string name = "svc";  ///< Reported as the run's workload name.
  std::vector<ServiceTenant> tenants;

  Cycle warmup_cycles = 0;          ///< Completions injected before this are dropped.
  Cycle measure_cycles = 200'000;   ///< Arrival horizon past warmup.

  /// CALM_R-style per-tenant token-bucket bandwidth regulation at the
  /// injection queues (the noisy-neighbor QoS knob).
  bool regulate = false;
  double reg_fraction = 0.70;   ///< R as a fraction of peak memory bandwidth.
  Cycle reg_burst_cycles = 8192;  ///< Credit cap, in cycles of fair share.

  /// Latency histogram geometry (cycles). Defaults cover ~27 us.
  Cycle hist_bucket_cycles = 16;
  std::uint32_t hist_buckets = 4096;

  /// Open-loop mode is on iff at least one tenant is configured.
  bool enabled() const { return !tenants.empty(); }
  void validate() const;
};

/// Outcome of one declared SLO after a run.
struct SloCheck {
  std::uint32_t tenant = 0;
  double quantile = 0.0;
  double target_ns = 0.0;
  double achieved_ns = 0.0;
  bool pass = false;
};

/// Measurement-window results of one open-loop run (the service analogue of
/// RunStats; reads come from the per-tenant "all" merge).
struct ServiceStats {
  Cycle cycles = 0;  ///< Measurement window length.
  std::uint64_t generated = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;  ///< Reads completed inside the window.
  std::uint64_t backlog_at_end = 0;
  std::uint64_t reg_stall_cycles = 0;  ///< Head-of-queue cycles denied by regulation.
  std::uint64_t bp_stall_cycles = 0;   ///< Head-of-queue cycles denied by backpressure.
  double offered_gbps = 0.0;   ///< Generated load (reads+writes).
  double achieved_gbps = 0.0;  ///< Admitted load (reads+writes).
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double max_ns = 0.0;
  double mean_ns = 0.0;
  mem::MemorySnapshot mem;  ///< Deltas over the window.
};

class ServiceDriver {
 public:
  ServiceDriver(const sys::SystemConfig& cfg, const ServiceConfig& svc,
                std::uint64_t seed = 42);

  /// Force lockstep ticking (RunRequest::tick_every_cycle). Call before
  /// run().
  void set_tick_every_cycle(bool v) { tick_every_cycle_ = v; }

  /// Generate arrivals over [0, warmup + measure), admit against the
  /// memory system, drain completions, then run the tail until every
  /// admitted read has completed. Arrival and injection stop at the
  /// horizon; leftover queue occupancy is reported as backlog.
  void run();

  const ServiceStats& stats() const { return stats_; }
  const std::vector<SloCheck>& slo_checks() const { return slo_; }
  const ServiceConfig& service_config() const { return svc_; }
  const sys::SystemConfig& config() const { return cfg_; }

  /// Per-tenant / merged latency histograms (valid after run()).
  const FixedHistogram& tenant_latency(std::uint32_t tenant) const {
    return tenants_[tenant].lat;
  }
  const FixedHistogram& all_latency() const { return all_lat_; }

  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  struct Queued {
    Cycle at = 0;  ///< Arrival cycle (latency epoch).
    Addr line = 0;
    bool is_write = false;
  };
  struct TenantState {
    std::unique_ptr<workload::ArrivalGenerator> gen;
    workload::ServiceRequest next;  ///< Pre-drawn head of the arrival stream.
    bool exhausted = false;         ///< next.at reached the horizon.
    std::deque<Queued> queue;
    FixedHistogram lat;
    // Counters (mirrored into the registry via probes).
    std::uint64_t generated = 0;
    std::uint64_t admitted = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t completed = 0;
    std::uint64_t reg_stall_cycles = 0;
    std::uint64_t bp_stall_cycles = 0;
    TenantState(Cycle bucket, std::uint32_t buckets) : lat(bucket, buckets) {}
  };

  Cycle next_event_after(Cycle now) const;
  void evaluate_slos();
  void register_metrics();

  sys::SystemConfig cfg_;
  ServiceConfig svc_;
  std::uint64_t seed_;
  Cycle horizon_ = 0;

  /// Declared before the memory system so probes it registered are
  /// destroyed only after it (same ordering rule as System).
  obs::MetricsRegistry metrics_;

  std::unique_ptr<mem::MemorySystem> memory_;
  std::unique_ptr<calm::BandwidthRegulator> regulator_;
  std::vector<TenantState> tenants_;
  FixedHistogram all_lat_;  ///< Merge of every tenant (same shape).

  /// token -> (tenant, arrival cycle) for inflight reads.
  struct Inflight {
    std::uint32_t tenant = 0;
    Cycle at = 0;
  };
  SlotPool<Inflight> inflight_;

  bool tick_every_cycle_ = false;
  Cycle mem_wake_ = 0;

  ServiceStats stats_;
  std::vector<SloCheck> slo_;
};

}  // namespace coaxial::sim
