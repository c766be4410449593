// Trace-driven out-of-order core model (ChampSim-style).
//
// Models the structures that matter for memory-system studies: a 256-entry
// ROB with 4-wide fetch/retire, a front-end/ILP IPC ceiling, load->load
// dependencies (pointer chasing), and a store buffer that bounds
// outstanding RFOs. Non-memory instructions complete one cycle after
// fetch; loads complete when the memory hierarchy responds; stores retire
// immediately and perform their write (RFO on miss) in the background.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>

#include "coaxial/configs.hpp"
#include "common/units.hpp"
#include "workload/trace.hpp"

namespace coaxial::core {

/// How the memory hierarchy responded to an issue attempt.
enum class IssueResult : std::uint8_t {
  kHitL1,     ///< Completes after the L1 hit latency.
  kAccepted,  ///< Miss in flight; completion arrives via callback.
  kRetry,     ///< Structural stall (MSHR full); retry next cycle.
};

/// Interface the simulation layer provides to cores. `waiter` is an opaque
/// token echoed back on completion (encodes ROB slot / store-buffer slot).
class MemoryPort {
 public:
  virtual ~MemoryPort() = default;
  virtual IssueResult issue_load(std::uint32_t core, Addr addr, Addr pc,
                                 std::uint64_t waiter, Cycle now) = 0;
  virtual IssueResult issue_store(std::uint32_t core, Addr addr, Addr pc,
                                  std::uint64_t waiter, Cycle now) = 0;
};

class Core {
 public:
  /// `max_ipc` is the front-end/ILP ceiling (WorkloadParams::max_ipc for
  /// synthetic sources; caller-chosen for trace replay).
  Core(std::uint32_t id, const sys::MicroarchConfig& cfg,
       std::unique_ptr<workload::InstrSource> source, double max_ipc);

  /// Convenience: wrap a synthetic generator.
  Core(std::uint32_t id, const sys::MicroarchConfig& cfg, workload::Generator generator);

  /// One cycle: retire, replay stalled issues, fetch/dispatch. `now` need
  /// not be consecutive with the previous tick: skipped cycles are replayed
  /// for their only per-cycle side effect (fetch-credit accrual) so an
  /// event-driven run is bit-identical to a tick-every-cycle run.
  void tick(Cycle now, MemoryPort& port);

  /// Earliest future cycle at which tick() could make progress, given the
  /// state after the tick at `now` — or kNoCycle if the core is fully
  /// blocked on a callback (load data, store-buffer release), in which case
  /// the caller must re-arm the wake-up when the callback fires.
  Cycle next_wake(Cycle now) const;

  /// Load data arrived: complete the ROB slot encoded in `waiter`.
  void on_load_complete(std::uint64_t waiter, Cycle now);

  /// Store RFO finished: release one store-buffer slot.
  void on_store_complete(Cycle now);

  std::uint64_t retired() const { return retired_; }
  std::uint32_t id() const { return id_; }

  /// RAS: the hierarchy handed this core poisoned data on a demand access.
  /// The sim records the machine-check event and continues (the OS/firmware
  /// would contain it); see DESIGN.md §7.
  void record_machine_check() { ++machine_checks_; }
  std::uint64_t machine_checks() const { return machine_checks_; }

  /// Reset the retirement counter (measurement-window boundary).
  void reset_window() {
    retired_ = 0;
    machine_checks_ = 0;
  }

  /// Encode/decode waiter tokens (core id | kind | slot).
  static std::uint64_t make_load_waiter(std::uint32_t core, std::uint32_t slot) {
    return (static_cast<std::uint64_t>(core) << 32) | slot;
  }
  static std::uint64_t make_store_waiter(std::uint32_t core) {
    return (static_cast<std::uint64_t>(core) << 32) | kStoreFlag;
  }
  static std::uint32_t waiter_core(std::uint64_t w) {
    return static_cast<std::uint32_t>(w >> 32);
  }
  static bool waiter_is_store(std::uint64_t w) {
    return (w & kStoreFlag) != 0;
  }
  static std::uint32_t waiter_slot(std::uint64_t w) {
    return static_cast<std::uint32_t>(w & 0xffffff);
  }

 private:
  static constexpr std::uint64_t kStoreFlag = 1ull << 31;
  static constexpr std::uint32_t kNoSlot = ~0u;
  /// Pending-issue queue bound (a power of two); beyond this, fetch stalls
  /// (scheduler full).
  static constexpr std::uint32_t kPendingBound = 64;

  struct RobEntry {
    Cycle done_cycle = kNoCycle;  ///< kNoCycle while pending.
    std::uint64_t seq = 0;        ///< Instruction sequence number.
  };

  struct PendingIssue {
    Addr addr = 0;
    Addr pc = 0;
    std::uint32_t rob_slot = 0;
    std::uint32_t dep_slot = kNoSlot;  ///< ROB slot of the load this depends on.
    std::uint64_t dep_seq = 0;
    bool is_store = false;
  };

  bool rob_full() const { return rob_count_ == cfg_.rob_entries; }
  void retire(Cycle now);
  void replay(Cycle now, MemoryPort& port);
  void fetch(Cycle now, MemoryPort& port);
  bool dep_satisfied(const PendingIssue& p, Cycle now) const;
  const workload::Instr& next_instr();

  std::uint32_t id_;
  sys::MicroarchConfig cfg_;
  double max_ipc_;  ///< Declared before source_ so the generator ctor can
                    ///< read params before moving the generator.
  std::unique_ptr<workload::InstrSource> source_;

  std::vector<RobEntry> rob_;
  std::uint32_t rob_head_ = 0;
  std::uint32_t rob_tail_ = 0;
  std::uint32_t rob_count_ = 0;
  std::uint64_t next_seq_ = 1;

  /// Issues stalled on deps or structure, oldest first. Fetch stops
  /// queueing at kPendingBound, so a fixed ring holds them without
  /// allocating.
  struct PendingQueue {
    std::array<PendingIssue, kPendingBound> slots;
    std::uint32_t head = 0;
    std::uint32_t count = 0;

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    const PendingIssue& front() const { return slots[head]; }
    void pop_front() {
      head = (head + 1) & (kPendingBound - 1);
      --count;
    }
    void push_back(const PendingIssue& p) {
      assert(count < kPendingBound);
      slots[(head + count) & (kPendingBound - 1)] = p;
      ++count;
    }
  };
  PendingQueue pending_;
  std::uint32_t store_buffer_used_ = 0;
  std::uint32_t last_load_slot_ = kNoSlot;
  std::uint64_t last_load_seq_ = 0;

  /// Fetch-side instruction buffer: instructions are pulled from the source
  /// in chunks (one virtual call per chunk rather than per instruction).
  /// The consumed sequence is identical to per-instruction next() calls;
  /// the source merely runs ahead of the core by up to a chunk.
  static constexpr std::size_t kInstrBufCap = 64;
  workload::Instr instr_buf_[kInstrBufCap];
  std::size_t instr_buf_pos_ = 0;
  std::size_t instr_buf_len_ = 0;

  double fetch_credit_ = 0.0;  ///< Token bucket enforcing the IPC ceiling.
  Cycle last_tick_ = 0;        ///< For credit catch-up over skipped cycles.
  std::uint64_t retired_ = 0;
  std::uint64_t machine_checks_ = 0;  ///< RAS poison-consumption events.
};

}  // namespace coaxial::core
