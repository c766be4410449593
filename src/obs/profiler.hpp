// Near-zero-overhead scoped phase profiler for host wall-clock attribution.
//
// The simulator's wall clock is dominated by a handful of hot phases (core
// retire loop, cache accesses, the FR-FCFS issue scan, link serialization,
// the memory pump). This profiler attributes steady_clock time and call
// counts to those phases so optimization work is guided by measurement
// rather than guesses (see DESIGN.md §8 and EXPERIMENTS.md "Wall-clock
// pass").
//
// Cost model:
//  * disabled (default): every COAXIAL_PROF_SCOPE is, inline at the scope,
//    one relaxed load of a header-visible flag and one predictable branch
//    on entry, and a null test of the scope's own pointer on exit — no
//    call, no clock reads, no TLS access. Only the first query of a
//    process takes the out-of-line path that reads COAXIAL_PROF. The
//    golden byte-identical guarantee is untouched because nothing is
//    published.
//  * enabled (COAXIAL_PROF=1): an out-of-line start and stop per scope,
//    two steady_clock reads per outermost scope, accumulated into
//    thread-local counters (no atomics, no locks).
//  * compiled out: defining COAXIAL_NO_PROF turns the macro into nothing.
//
// Accounting contract:
//  * times are inclusive — a scope's time contains its nested scopes;
//  * re-entrant scopes of the same phase count once (only the outermost
//    scope reads the clock), so recursive call chains don't double-count;
//  * `calls` counts every scope entry, including re-entrant ones.
//
// Publication: run_one() snapshots the calling thread's totals around every
// driver's run() (System, ServiceDriver and PooledSystem, whose shard
// workers' totals are folded in) and, when enabled, publishes the delta
// under `host/prof/<phase>/{ns,calls}` in the run's metrics registry — an
// opt-in subtree, exactly like `host_seconds`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace coaxial::obs {
class Scope;
}

namespace coaxial::obs::prof {

/// Instrumented host phases. Order is the publication order; names live in
/// phase_name() (profiler.cpp).
enum class Phase : std::uint8_t {
  kCoreTick = 0,    ///< Core retire / replay / fetch loop.
  kWorkloadGen,     ///< Instruction synthesis (generator / trace replay).
  kCacheAccess,     ///< Cache tag lookups, writes, fills.
  kMshr,            ///< MSHR allocate / merge / fill service.
  kDramTick,        ///< DRAM controller tick (refresh, drain policy, wake).
  kDramTryIssue,    ///< FR-FCFS issue scan inside the controller tick.
  kLinkSerialize,   ///< SerialPipe flit serialization (CXL link segments).
  kFabricArb,       ///< Switch arbitration / fabric transport tick.
  kMemPump,         ///< System::pump_memory (memory tick + retry queues).
  kEventDrain,      ///< Payload-event drain (fills, arrivals, finishes).
  kSchedDispatch,   ///< Event-driven scheduler pump (System::run step).
  kShardPump,       ///< Sharded pump: one shard's in-quantum work.
  kShardBarrier,    ///< Sharded pump: waiting at the quantum barrier.
  kShardDrain,      ///< Sharded pump: cross-shard mailbox exchange.
  kCount
};

inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

/// Stable lowercase slug for the metrics path ("core_tick", "dram_try_issue").
const char* phase_name(Phase p);

namespace detail {

/// 1 = on, 0 = off, -1 = not yet read from COAXIAL_PROF. Header-visible so
/// a disabled scope costs one inline load and branch.
extern std::atomic<int> g_enabled;

/// First query: read COAXIAL_PROF once and cache it in g_enabled.
bool init_enabled();

}  // namespace detail

/// Whether profiling is active. Initialized once from COAXIAL_PROF; tests
/// and tools may override before timing anything (set_enabled is not
/// thread-safe against concurrently running scopes).
inline bool enabled() {
  const int v = detail::g_enabled.load(std::memory_order_relaxed);
  if (v == 0) [[likely]] return false;
  return v > 0 || detail::init_enabled();
}
void set_enabled(bool on);

/// Per-thread accumulated totals; indices follow Phase.
struct Totals {
  std::uint64_t ns[kPhaseCount] = {};
  std::uint64_t calls[kPhaseCount] = {};

  Totals delta_since(const Totals& base) const {
    Totals d;
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      d.ns[i] = ns[i] - base.ns[i];
      d.calls[i] = calls[i] - base.calls[i];
    }
    return d;
  }

  /// Fold another thread's totals in (worker threads of a sharded run hand
  /// their deltas to the coordinator, which publishes one merged subtree).
  void add(const Totals& other) {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      ns[i] += other.ns[i];
      calls[i] += other.calls[i];
    }
  }
};

namespace detail {

struct ThreadState {
  Totals totals;
  std::uint32_t depth[kPhaseCount] = {};  ///< Re-entrancy guards.
};

ThreadState& tls();

}  // namespace detail

/// Snapshot of the calling thread's totals (cheap copy; delta with
/// Totals::delta_since to bracket a region such as one System::run).
inline Totals thread_totals() { return detail::tls().totals; }

/// Reset the calling thread's totals (test isolation).
void reset_thread_totals();

/// Publish `delta` under `scope` as `<phase>/{ns,calls}` counter pairs
/// (every phase is emitted, including zero ones, so the subtree shape is
/// stable across runs). Callers gate on enabled(): the subtree must not
/// exist in default runs or the golden baseline shape would change.
void publish(const Scope& scope, const Totals& delta);

/// RAII phase scope. Construct via COAXIAL_PROF_SCOPE so the whole thing
/// can be compiled out with COAXIAL_NO_PROF.
class ScopedTimer {
 public:
  /// `on == false` leaves the scope inert (a phase opened in some runs only).
  explicit ScopedTimer(Phase p, bool on = true) {
    if (on && enabled()) start(p);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (st_ != nullptr) stop();  // Null unless enabled at entry.
  }

 private:
  // The enabled halves, out of line (profiler.cpp) so that a disabled scope
  // inlines to a load and a branch.
  void start(Phase p);
  void stop();

  detail::ThreadState* st_ = nullptr;
  std::size_t idx_ = 0;
  bool timing_ = false;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace coaxial::obs::prof

#ifdef COAXIAL_NO_PROF
#define COAXIAL_PROF_SCOPE(phase, ...)
#else
#define COAXIAL_PROF_CONCAT2(a, b) a##b
#define COAXIAL_PROF_CONCAT(a, b) COAXIAL_PROF_CONCAT2(a, b)
#define COAXIAL_PROF_SCOPE(phase, ...)                              \
  ::coaxial::obs::prof::ScopedTimer COAXIAL_PROF_CONCAT(            \
      coaxial_prof_scope_, __LINE__)(                               \
      ::coaxial::obs::prof::Phase::phase __VA_OPT__(, ) __VA_ARGS__)
#endif
