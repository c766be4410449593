#include "obs/profiler.hpp"

#include <atomic>

#include "common/env.hpp"
#include "obs/metrics.hpp"

namespace coaxial::obs::prof {

namespace {

constexpr const char* kPhaseNames[kPhaseCount] = {
    "core_tick",      "workload_gen", "cache_access", "mshr",
    "dram_tick",      "dram_try_issue", "link_serialize", "fabric_arb",
    "mem_pump",       "event_drain",  "sched_dispatch",
    "shard/pump",     "shard/barrier_wait", "shard/mailbox_drain",
};

}  // namespace

const char* phase_name(Phase p) { return kPhaseNames[static_cast<std::size_t>(p)]; }

void set_enabled(bool on) {
  detail::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

namespace detail {

std::atomic<int> g_enabled{-1};

bool init_enabled() {
  const bool on = env_flag("COAXIAL_PROF");
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
  return on;
}

ThreadState& tls() {
  thread_local ThreadState state;
  return state;
}

}  // namespace detail

void ScopedTimer::start(Phase p) {
  st_ = &detail::tls();
  idx_ = static_cast<std::size_t>(p);
  ++st_->totals.calls[idx_];
  timing_ = st_->depth[idx_]++ == 0;  // Re-entrant: outermost scope times.
  if (timing_) start_ = std::chrono::steady_clock::now();
}

void ScopedTimer::stop() {
  --st_->depth[idx_];
  if (!timing_) return;
  const auto end = std::chrono::steady_clock::now();
  st_->totals.ns[idx_] += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_).count());
}

void reset_thread_totals() { detail::tls() = detail::ThreadState{}; }

void publish(const Scope& scope, const Totals& delta) {
  if (!scope.valid()) return;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Scope ph = scope.sub(kPhaseNames[i]);
    ph.counter("ns")->set(delta.ns[i]);
    ph.counter("calls")->set(delta.calls[i]);
  }
}

}  // namespace coaxial::obs::prof
