// FR-FCFS memory controller for one DDR5 sub-channel.
//
// Models: separate read/write queues with write-drain watermarks, row-buffer
// management (open-page policy), bank/rank timing constraints (tRCD, tRP,
// tRAS, tCCD_S/L, tRRD_S/L, tFAW, tWR, tRTP, tWTR_S/L, read/write bus
// turnaround), all-bank refresh every tREFI, and write-to-read forwarding.
//
// The controller issues at most one command per cycle (command bus). Reads
// complete at CAS + CL + BL (data fully transferred); writes are posted and
// complete on enqueue from the requester's perspective.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "dram/address_map.hpp"
#include "dram/bank.hpp"
#include "dram/timing.hpp"
#include "dram/timing_check.hpp"
#include "obs/metrics.hpp"

namespace coaxial::dram {

/// A finished read, reported back to the owner of the controller, with
/// its latency decomposed into unloaded service vs queuing (forwarded
/// reads report 1 cycle of service, no queuing).
struct Completion {
  std::uint64_t token = 0;
  Cycle done = 0;
  Cycle service = 0;      ///< Unloaded (row-state-dependent) component.
  Cycle queue_delay = 0;  ///< Everything above the unloaded component.
};

struct ControllerStats {
  std::uint64_t reads_done = 0;
  std::uint64_t writes_done = 0;
  std::uint64_t reads_forwarded = 0;  ///< Served from the write queue.
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;  ///< CAS that needed ACT (bank was closed).
  std::uint64_t row_conflicts = 0;  ///< CAS that needed PRE + ACT.
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t data_bus_busy_cycles = 0;
  double read_queue_delay_sum = 0;   ///< Cycles spent queued, reads.
  double read_service_sum = 0;       ///< Ideal unloaded service component, reads.

  double row_hit_rate() const {
    const double total = static_cast<double>(row_hits + row_misses + row_conflicts);
    return total == 0 ? 0.0 : static_cast<double>(row_hits) / total;
  }
};

class Controller {
 public:
  /// `scope`, when valid, registers this controller's counters, read-latency
  /// histogram, and timing-invariant violation counters into the metrics
  /// registry at construction. Throws std::invalid_argument when the
  /// geometry's flat bank count exceeds 2^16 or its rank x bank-group count
  /// exceeds 2^8 (the widths of the scheduler's packed scan keys).
  Controller(const Timing& timing, const Geometry& geometry,
             std::size_t read_queue_depth = 64, std::size_t write_queue_depth = 64,
             obs::Scope scope = {});

  /// True if a read/write can be enqueued this cycle.
  bool can_accept(bool is_write) const;

  /// Enqueue a request. `token` is echoed in the read completion.
  /// Returns false (and does nothing) if the relevant queue is full.
  bool enqueue(Addr local_line, bool is_write, Cycle now, std::uint64_t token);

  /// Advance one cycle: refresh management + at most one command issue.
  /// Returns the earliest future cycle at which the controller could act
  /// again (command issue, refresh deadline, idle-row precharge). The bound
  /// is conservative (never later than the true next action), so callers
  /// may skip ticking until then without changing any decision — the basis
  /// of the event-driven System loop.
  Cycle tick(Cycle now);

  /// Read completions produced since the last drain (in completion order).
  std::vector<Completion>& completions() { return completions_; }

  const ControllerStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; read_hist_.reset(); }

  /// Read latency distribution (arrival to data), for load-latency curves.
  const LatencyHistogram& read_latency_hist() const { return read_hist_; }

  /// Shadow timing-invariant checker (tRC/tRCD/tRP/tRAS/tCCD_L/tFAW,
  /// refresh deadlines). Violation counts should always be zero.
  const TimingChecker& timing_checker() const { return checker_; }

  std::size_t read_queue_size() const { return read_q_.size(); }
  std::size_t write_queue_size() const { return write_q_.size(); }
  bool idle() const { return read_q_.empty() && write_q_.empty(); }

  const Timing& timing() const { return timing_; }

  /// Test hook: disable the per-queue next-ready cache so invariant tests
  /// can compare the cached fast path against the brute-force rescan. The
  /// cache is a pure scan-skipping device; scheduling decisions must be
  /// identical either way.
  void set_ready_cache(bool on) {
    ready_cache_enabled_ = on;
    queue_ready_[0] = queue_ready_[1] = 0;
    wake_cache_ = 0;
    idle_ready_ = 0;
  }

  /// Test hook: cross-check the scan-side mirrors against the state they
  /// shadow — open_row_ against banks_, a valid idle bound against a fresh
  /// minimum over idle_eligible_, and every queued scan key and line against
  /// its request. Both ready-cache modes share these mirrors, so the
  /// brute-force reference cannot catch a stale one. Returns "" when all
  /// agree, else a description of the first mismatch.
  std::string check_mirrors() const;

 private:
  struct Request {
    Coord coord;
    Cycle arrival = 0;
    std::uint64_t token = 0;
    bool needed_act = false;  ///< An ACT was issued on this request's behalf.
    bool needed_pre = false;  ///< A PRE was issued on this request's behalf.
  };
  /// What the FR-FCFS window scan reads of a queued request, packed into 8
  /// bytes so a 16-entry window spans two host cache lines. The constructor
  /// rejects geometries whose indices do not fit these fields.
  struct ScanKey {
    std::uint32_t row = 0;
    std::uint16_t bank = 0;  ///< coord.flat_bank_all().
    std::uint8_t rank = 0;
    std::uint8_t rg = 0;  ///< rank * bank_groups + bank_group.
  };
  static_assert(sizeof(ScanKey) == 8, "a scan key is one 8-byte word");
  /// One request queue: requests in arrival order, with their scan keys and
  /// line addresses in parallel arrays pushed and erased together with them.
  /// The write queue's line array serves write-to-read forwarding as a
  /// contiguous scan.
  struct Queue {
    std::vector<Request> reqs;
    std::vector<ScanKey> keys;
    std::vector<Addr> lines;
    std::size_t size() const { return reqs.size(); }
    bool empty() const { return reqs.empty(); }
    void reserve(std::size_t n) {
      reqs.reserve(n);
      keys.reserve(n);
      lines.reserve(n);
    }
    void erase(std::size_t i) {
      reqs.erase(reqs.begin() + static_cast<std::ptrdiff_t>(i));
      keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(i));
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
    }
  };

  /// open_row_ value of a closed bank (rows are < Geometry::rows <= 2^32-1).
  static constexpr std::uint32_t kClosedRow = ~std::uint32_t{0};

  // Scheduling helpers. Each returns true if a command was issued.
  bool try_refresh(Cycle now);
  bool try_issue(Queue& queue, bool is_write, Cycle now);
  void issue_cas(const Request& req, const ScanKey& key, bool is_write, Cycle now);
  void commit_prep(Request& req, const ScanKey& key, Cycle now);
  void idle_precharge(Cycle now);
  /// PRE `bank` (its legality already checked): the one place a bank closes.
  void precharge(std::uint32_t bank, Cycle now);
  /// Write idle_eligible_[bank], keeping idle_ready_ exact (see there).
  void set_idle_eligible(std::uint32_t bank, Cycle eligible);

  // Earliest legal cycles for a candidate's next command, as a raw max over
  // frozen constraint timestamps (no now+1 floor). One computation serves
  // both the issue decision (earliest <= now) and, on a failed scan, the
  // wake bound (earliest > now, so the floor would be a no-op anyway) —
  // keeping the two paths bit-identical by construction instead of by
  // maintaining hand-written bool/cycle mirrors. prep_earliest is for a
  // candidate whose bank is not open on its row; `open_row` is the bank's
  // open_row_ entry.
  Cycle cas_earliest(const ScanKey& key, bool is_write) const;
  Cycle prep_earliest(const ScanKey& key, std::uint32_t open_row) const;

  // Wake-cycle lower bound for the event-driven loop: when could the
  // command that tick() just declined become issueable?
  Cycle compute_wake(Cycle now) const;

  Timing timing_;
  AddressMap amap_;
  std::size_t read_depth_;
  std::size_t write_depth_;
  bool multi_rank_;  ///< Rank switches pay tCS.

  std::vector<Bank> banks_;
  // Row-buffer mirror of banks_: the open row, or kClosedRow. The scan's
  // row-hit test reads one 4-byte entry instead of a 40-byte Bank; written
  // at the two sites that open or close a bank (commit_prep's ACT and
  // precharge(), which serves PRE, idle precharge and refresh).
  std::vector<std::uint32_t> open_row_;
  std::vector<Cycle> bank_last_use_;  ///< For idle-bank precharge.
  // Exact per-bank idle-precharge eligibility, mirrored incrementally:
  // max(next_pre, last_use + tIdle) while the bank is open, kNoCycle when
  // closed. Updated at the only sites that move a bank's open/next_pre/
  // last_use state (CAS, PRE, ACT, refresh), it turns the idle-precharge
  // scans from a walk over scattered Bank structs into a contiguous min
  // scan. Not a cache: always exact, so both ready-cache modes share it.
  std::vector<Cycle> idle_eligible_;
  Queue read_q_;
  Queue write_q_;
  std::vector<Completion> completions_;

  // Rank-level constraint state (indexed by rank, or rank*groups+group).
  std::vector<Cycle> next_act_rank_;          ///< tRRD_S and tFAW, per rank.
  std::vector<Cycle> next_act_group_;         ///< tRRD_L within a group.
  std::vector<Cycle> next_cas_rank_;          ///< tCCD_S from any CAS, per rank.
  std::vector<Cycle> next_cas_group_;         ///< tCCD_L within a group.
  Cycle next_rd_bus_ = 0;                     ///< Bus turnaround: earliest read CAS.
  Cycle next_wr_bus_ = 0;                     ///< Bus turnaround: earliest write CAS.
  std::vector<Cycle> next_rd_after_wr_group_; ///< tWTR_L within a group.
  struct FawWindow {
    Cycle acts[4] = {0, 0, 0, 0};
    std::uint32_t pos = 0;
  };
  std::vector<FawWindow> faw_;                ///< tFAW window per rank.
  // Shared data bus: rank switches pay tCS after the previous burst.
  Cycle last_cas_end_ = 0;
  std::uint32_t last_cas_rank_ = 0;

  std::uint32_t open_banks_ = 0;  ///< Fast gate for idle-precharge scans.

  // Per-queue next-ready cache ([0]=read, [1]=write). When a tick's scan of
  // a queue issues nothing, it records the earliest cycle any window
  // candidate could become issueable; until then — and as long as no
  // command issues and nothing is enqueued (every such event clears the
  // cache via note_command/enqueue) — try_issue skips its O(window) rescan.
  // 0 means "unknown, must scan". Scheduling decisions are unchanged: the
  // cache only elides scans that provably cannot issue.
  mutable Cycle queue_ready_[2] = {0, 0};
  // Whole-tick wake cache: compute_wake's result is a min over *every*
  // action the next tick could take (CAS/ACT/PRE candidates in both scan
  // windows, refresh arming and progress, idle-bank precharge), each a
  // frozen timestamp. While now < wake_cache_ and no command has issued and
  // nothing was enqueued, the full tick body is provably a no-op and would
  // return exactly this bound again (every candidate is a genuine future
  // timestamp, unaffected by the now+1 floor), so tick() returns it
  // directly. 0 means "invalid, run the full tick".
  mutable Cycle wake_cache_ = 0;
  // Exact min over idle_eligible_ (kNoCycle when no bank is open), held by
  // bank idle_min_bank_, or 0 when unknown. Commands leave it valid:
  // set_idle_eligible lowers it when a bank drops below it and drops it to
  // unknown only when the bank holding it moves later, so the next scan
  // (idle_precharge or compute_wake) recomputes it. Lets idle_precharge()
  // skip its all-banks scan.
  mutable Cycle idle_ready_ = 0;
  mutable std::uint32_t idle_min_bank_ = 0;
  bool ready_cache_enabled_ = true;
  void note_command() {
    queue_ready_[0] = queue_ready_[1] = 0;
    wake_cache_ = 0;
  }

  // Refresh state.
  Cycle next_refresh_ = 0;
  bool refresh_pending_ = false;

  // Write-drain policy state.
  bool draining_writes_ = false;

  ControllerStats stats_;
  LatencyHistogram read_hist_;
  TimingChecker checker_;
};

}  // namespace coaxial::dram
