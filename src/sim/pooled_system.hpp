// Multi-host pooled-memory driver (DESIGN.md §12, §14).
//
// Ticks N host slices against one pool::PooledMemory. Each slice is the
// closed-loop core model from sim::System reduced to one core: a
// workload::Generator stream, an IPC credit bucket, a bounded window of
// outstanding reads, and load->load dependency stalls. A per-slice share
// RNG redirects a configured fraction of memory ops from the slice's
// private region into the shared pooled window (with a hot contended
// subset), which is what exercises the coherence directory.
//
// Two pumps:
//
//  * Direct fabrics run under the sharded quantum engine (DESIGN.md §14):
//    the system is partitioned into one pool shard plus one shard per host
//    slice, each pumped independently inside quanta of Q =
//    PooledMemory::min_cross_shard_latency() cycles, with mailboxes drained
//    at the barrier between quanta. One worker (the default) runs every
//    shard inline on the calling thread; set_workers(N) pumps shards on N
//    threads. The schedule of (shard, cycle) work and every barrier
//    decision is a pure function of simulation state — never of the worker
//    count — so every worker count produces byte-identical stats.
//  * Switched fabrics keep the sequential per-cycle pump: a switch
//    arbitrates both directions of every host in one shared structure, so
//    it cannot be split into independently-pumped shards. Requesting more
//    than one worker on a switched pool throws.
//
// Determinism (both pumps): slices are stepped in host order. A slice that
// retires or is backpressured arms a now+1 wake; a slice stalled on a
// load->load dependency or a full read window sleeps until its earliest
// slot landing (Slice::next_done, lowered by every drained completion),
// because only the sweep that frees a slot can end either stall. On resume
// it counts every skipped cycle as that stall, so the stall counters are
// identical whether the scheduler runs event-driven or in lockstep
// (set_tick_every_cycle, which steps every slice every cycle); event
// skipping only compresses idle gaps — the engine additionally rounds skips
// down to quantum boundaries so both modes observe every barrier predicate
// transition at the same barrier.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "pool/pooled_memory.hpp"
#include "workload/generator.hpp"

namespace coaxial::sim {

/// Measurement-window results of one pooled run.
struct PooledStats {
  Cycle window_cycles = 0;  ///< Joint window (all hosts warm .. all done).
  Cycle total_cycles = 0;   ///< Full run including warmup and drain.
  std::uint64_t instructions = 0;  ///< Window retirements, summed over hosts.
  std::vector<double> host_ipc;    ///< Per-host window IPC.
  double ipc_mean = 0;
  double read_p50_ns = 0;  ///< Merged read-latency percentiles (window).
  double read_p99_ns = 0;
  pool::PoolCounters pool;  ///< Lifetime protocol totals at end of run.
};

/// N closed-loop host slices sharing a pooled CXL memory.
class PooledSystem {
 public:
  PooledSystem(const pool::PoolConfig& cfg, std::uint64_t seed);

  /// Run until every host has retired warmup + measure instructions, then
  /// drain the memory system to quiescence. The measurement window opens
  /// when the last host crosses `warmup_instr` and closes when the last
  /// host crosses the full budget.
  PooledStats run(std::uint64_t warmup_instr, std::uint64_t measure_instr);

  /// Force the per-cycle scheduler (RunRequest::tick_every_cycle).
  void set_tick_every_cycle(bool on) { tick_every_cycle_ = on; }

  /// Request N shard workers for the quantum engine (clamped to the shard
  /// count, n_hosts + 1). The default 1 pumps every shard inline. Throws
  /// from run() when N > 1 on a switched (engine-incapable) pool.
  void set_workers(std::uint32_t n) { workers_ = n == 0 ? 1 : n; }
  /// Workers actually used by the last run() (1 for the sequential pump).
  std::uint32_t effective_workers() const { return effective_workers_; }
  /// The engine's conservative lookahead in cycles (0 when the fabric is
  /// switched and the engine cannot run).
  Cycle lookahead() const;
  /// Summed profiler totals of the worker threads of the last run (the
  /// coordinator's phases are in its own thread-local totals).
  const obs::prof::Totals& worker_prof_totals() const {
    return worker_prof_totals_;
  }

  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const pool::PooledMemory& memory() const { return *memory_; }
  const pool::PoolConfig& config() const { return cfg_; }

 private:
  struct Slot {
    Cycle start = 0;
    Cycle done = kNoCycle;
    bool busy = false;
  };

  /// Why a slice's last step stopped short of its IPC credit.
  enum class Stall : std::uint8_t { kNone, kDep, kWindow, kBp };

  struct Slice {
    std::unique_ptr<workload::Generator> gen;
    Rng share_rng{0};
    workload::Instr cur;         ///< Buffered head instruction.
    Addr cur_line = 0;           ///< Its post-redirect line address.
    bool cur_valid = false;
    bool cur_shared = false;
    double credit = 0;
    Cycle last_step = 0;
    std::vector<Slot> slots;     ///< host_window outstanding reads.
    std::vector<std::uint32_t> free_slots;
    Cycle next_done = kNoCycle;  ///< Earliest landing of an unfreed slot.
    std::uint32_t last_load_slot = 0;
    bool last_load_valid = false;
    bool halted = false;
    Stall stall = Stall::kNone;  ///< Set by the last step.
    Cycle halt_at = kNoCycle;    ///< Cycle the budget was crossed (exact).
    std::uint64_t retired = 0;
    std::uint64_t retired_base = 0;  ///< Snapshot at window open.
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t shared_ops = 0;    ///< Accesses redirected to the pool.
    std::uint64_t poisons = 0;       ///< Poisoned read completions consumed.
    std::uint64_t bp_stall_cycles = 0;      ///< Memory would not accept.
    std::uint64_t dep_stall_cycles = 0;     ///< Load->load dependency.
    std::uint64_t window_stall_cycles = 0;  ///< All read slots busy.
    FixedHistogram lat;  ///< Read latency, cycles, window-issued only.

    /// A dep or window stall holds until a sweep frees a slot, and nothing
    /// sweeps before the earliest landing: the slice need not step at `now`.
    bool asleep(Cycle now) const {
      return (stall == Stall::kDep || stall == Stall::kWindow) && now < next_done;
    }
    /// The next cycle the slice, stepped at `now`, must step: kNoCycle once
    /// halted, the earliest landing while asleep (kNoCycle until a
    /// completion is drained), now + 1 otherwise.
    Cycle wake_after(Cycle now) const {
      if (halted) return kNoCycle;
      return asleep(now + 1) ? next_done : now + 1;
    }
  };

  void step(Cycle now);
  void step_slice(std::uint32_t h, Cycle now);
  void drain_completions(std::uint32_t h);
  void fetch(Slice& s, std::uint32_t h);
  Cycle next_event_after(Cycle now) const;
  /// Window bookkeeping shared by both pumps, called after a step (at
  /// `now`) or a barrier (at its cycle): opens the window at `at` once every
  /// host is warm, closes it once every host has halted. Returns whether
  /// the window is closed.
  bool track_window(std::uint64_t warmup_instr, Cycle at);
  PooledStats run_sequential(std::uint64_t warmup_instr);
  PooledStats run_quantum(std::uint64_t warmup_instr);
  /// Throws std::logic_error naming the pool's non-empty structures and
  /// each live slice's stall and awaited landing: nothing is armed while
  /// work remains.
  [[noreturn]] void throw_lost_wake(Cycle now) const;
  PooledStats assemble_stats(Cycle total) const;
  void register_metrics();

  pool::PoolConfig cfg_;
  std::uint64_t seed_ = 0;
  Addr private_lines_ = 0;
  bool tick_every_cycle_ = false;
  std::uint32_t workers_ = 1;
  std::uint32_t effective_workers_ = 1;
  obs::prof::Totals worker_prof_totals_;

  // The registry must outlive (so: precede) everything that registers.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<pool::PooledMemory> memory_;
  std::vector<Slice> slices_;

  Cycle mem_wake_ = 0;
  std::uint64_t budget_ = 0;  ///< Per-host warmup + measure retirements.
  bool window_open_ = false;
  bool window_closed_ = false;
  Cycle window_start_ = 0;
  Cycle window_end_ = 0;
};

}  // namespace coaxial::sim
