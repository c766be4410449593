// Tiered memory system: a fast local-DDR tier plus a CXL capacity tier
// behind the two-stage AddressMap, with epoch-driven hot-page migration
// (DESIGN.md §10).
//
// Determinism contract (both scheduler modes must agree bit-for-bit):
//  * can_accept() is pure — it translates and delegates, never counts.
//  * All placement state (heat counters aside) mutates only in tick():
//    migration jobs issue copy traffic from the cycle pump, and remap
//    installs happen only at epoch barriers (cycle % epoch_cycles == 0).
//  * Heat counters bump in access(), whose call sequence is identical in
//    both modes.
//  * tick() always returns a wake bound <= the next epoch barrier, so the
//    event-driven scheduler provably reaches every barrier cycle.
//
// Shootdown protocol: while a page is migrating, demand reads keep hitting
// the *source* copy (the remap entry is untouched until the install) and
// demand writes are refused by can_accept() — the caller parks and retries
// them — so the copied image can never go stale.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "coaxial/memory_system.hpp"
#include "common/slot_pool.hpp"
#include "obs/metrics.hpp"
#include "placement/address_map.hpp"
#include "placement/policy.hpp"

namespace coaxial::placement {

/// Migration-read tokens set bit 63 so they can never collide with demand
/// tokens (32-bit op ids); bits [62:32] hold the job id, [31:0] the line
/// index within the page.
inline constexpr std::uint64_t kMigFlag = 1ull << 63;

class TieredMemory final : public mem::MemorySystem {
 public:
  /// `fast` serves tier 0 (local DDR), `capacity` tier 1 (the full address
  /// space, identity-mapped). `scope`, when valid, registers the aggregate
  /// read/write/bandwidth probes; the inner systems register their own
  /// subtrees (tier0/..., tier1/...) via the scopes they were built with.
  /// A `plan` with a device-failure episode (DESIGN.md §13) makes this
  /// layer the evacuation owner: the migration policy is wrapped in an
  /// EvacuationPolicy, the capacity tier is parked in kEvacuating on a
  /// monitor trip until evacuation completes, and pages stranded on a dead
  /// device enter the page-retirement table (touches become exactly-once
  /// poison completions). Requires page-granular capacity interleave so a
  /// tier page homes on exactly one device.
  TieredMemory(const TierConfig& cfg, std::unique_ptr<mem::MemorySystem> fast,
               std::unique_ptr<mem::MemorySystem> capacity, obs::Scope scope = {},
               const ras::FaultPlan& plan = {});

  bool can_accept(Addr line, bool is_write, Cycle now) const override;
  void access(Addr line, bool is_write, Cycle now, std::uint64_t token) override;
  Cycle tick(Cycle now) override;
  void set_force_tick(bool force) override {
    fast_->set_force_tick(force);
    cap_->set_force_tick(force);
  }
  std::vector<mem::MemCompletion>& completions() override { return out_; }
  Cycle completion_lead() const override {
    return std::max(fast_->completion_lead(), cap_->completion_lead());
  }

  /// Fast-tier ports first, then the capacity tier's (NoC placement treats
  /// them as one pool of memory tiles).
  std::uint32_t ports() const override { return fast_->ports() + cap_->ports(); }
  std::uint32_t port_of(Addr line) const override;

  mem::MemorySnapshot snapshot() const override;
  void reset_stats() override;
  double peak_gbps() const override { return fast_->peak_gbps() + cap_->peak_gbps(); }
  dram::ControllerStats aggregate_dram_stats() const override;
  ras::RasCounters ras_counters() const override;
  TierCounters tier_counters() const override;
  ras::AvailCounters avail_counters() const override;
  ras::FailureStatus failure_status() const override {
    return cap_->failure_status();
  }

  const AddressMap& address_map() const { return amap_; }
  const mem::MemorySystem& fast_tier() const { return *fast_; }
  const mem::MemorySystem& capacity_tier() const { return *cap_; }
  bool page_retired(Addr page) const { return retired_.count(page) != 0; }

 private:
  /// One page copy: reads stream from the source tier (tokens carry the
  /// job id), each completed read unlocks its line's posted write to the
  /// destination. The job is complete once every write is accepted; its
  /// remap installs at the next epoch barrier.
  struct MigrationJob {
    Addr page = 0;
    std::uint32_t frame = 0;
    bool promote = true;
    bool evac = false;     ///< Started by the evacuation (DESIGN.md §13).
    bool aborted = false;  ///< A copy read came back poisoned; cancel.
    std::uint32_t reads_issued = 0;
    std::uint32_t reads_done = 0;
    std::uint32_t write_cursor = 0;          ///< Writes accepted so far.
    std::vector<std::uint32_t> ready_writes; ///< Line idx, completion order.
  };

  void process_barrier();
  void pump_migrations(Cycle now);
  void drain_inner(std::vector<mem::MemCompletion>& in);
  void start_job(Addr page, std::uint32_t frame, bool promote, bool evac = false);

  // ---- device-failure evacuation (DESIGN.md §13) ----
  std::uint32_t page_device(Addr page) const {
    return cap_->device_of_line(page * cfg_.page_lines);
  }
  /// Any promote job still draining the failing device's pages?
  bool evac_jobs_live() const;
  /// Enter `page` into the retirement table (idempotent): later touches
  /// become exactly-once poison completions instead of device traffic.
  void retire_page(Addr page);
  Addr src_line_of(const MigrationJob& job, std::uint32_t idx) const {
    return (job.promote ? job.page : Addr{job.frame}) * cfg_.page_lines + idx;
  }
  Addr dst_line_of(const MigrationJob& job, std::uint32_t idx) const {
    return (job.promote ? Addr{job.frame} : job.page) * cfg_.page_lines + idx;
  }

  TierConfig cfg_;
  AddressMap amap_;
  std::unique_ptr<mem::MemorySystem> fast_;
  std::unique_ptr<mem::MemorySystem> cap_;
  std::unique_ptr<MigrationPolicy> policy_;

  PageHeat heat_;
  std::uint64_t epoch_fast_ = 0;  ///< Demand accesses to tier 0 this epoch.
  std::uint64_t epoch_cap_ = 0;   ///< Demand accesses to tier 1 this epoch.
  std::uint64_t epoch_index_ = 0;
  Cycle next_barrier_ = 0;

  SlotPool<MigrationJob> jobs_;        ///< Id rides the copy reads' tokens.
  std::deque<std::uint32_t> backlog_;  ///< Planned, waiting for a copy slot.
  std::vector<std::uint32_t> active_;  ///< Copying now (<= max_concurrent).
  std::vector<std::uint32_t> completed_;  ///< Copied, awaiting install.

  TierCounters ctr_;  ///< Lifetime totals (see reset_stats()).
  std::vector<mem::MemCompletion> out_;

  // Device-failure evacuation state. Mutations happen in access() (whose
  // call sequence is identical across scheduler modes, like heat_) and at
  // barriers; the capacity tier's failure phase only changes inside its own
  // tick() at deterministic cycles, so live queries stay mode-agnostic.
  bool evac_on_ = false;           ///< plan.device_failure(), cached.
  std::uint32_t fail_dev_ = 0;     ///< Capacity device planned to fail.
  std::uint32_t evac_budget_ = 0;  ///< Evacuate pages per epoch bound.
  std::unordered_set<Addr> evac_pending_;  ///< Touched fail-device pages.
  std::unordered_set<Addr> retired_;       ///< Page-retirement table.
  ras::AvailCounters avail_;  ///< Evacuation/retirement events (lifetime).
};

}  // namespace coaxial::placement
