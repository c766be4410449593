// Per-layer measurements of bench_perf, all taken from outside the library:
// counts from a run's outputs, exclusive host-time shares from the opt-in
// phase profiler, and small drivers that call one layer's public API.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "sim/runner.hpp"
#include "workloads.hpp"

namespace bench_perf {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};
using Metrics = std::vector<Metric>;

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Model counts and ratios of every layer, read from one run's outputs.
/// Layers the workload does not use read 0.
void add_count_metrics(const coaxial::sim::RunRequest& request,
                       const coaxial::sim::RunResult& result, Metrics& out);

/// Profiler totals summed over traced runs.
struct Profile {
  double ns[coaxial::obs::prof::kPhaseCount] = {};
  double calls[coaxial::obs::prof::kPhaseCount] = {};
  /// cache_access time of System::run's cache pre-warm, which fills caches
  /// before the run loop opens any other phase (summed like `ns`; zero for
  /// other run kinds).
  double prewarm_cache_ns = 0;
  /// Host time the phases can cover: run time x shard workers, summed.
  double thread_ns = 0;
  int runs = 0;

  /// Add one traced run. Its published host/prof subtree (which folds in
  /// shard workers) is used when run_one publishes one; open-loop runs
  /// publish none and run on the calling thread, whose profiler delta over
  /// run_one is `calling_thread`. For sim::System runs this also profiles a
  /// System::run that stops right after its pre-warm.
  void add(const coaxial::sim::RunRequest& request, const coaxial::sim::RunResult& traced,
           const coaxial::obs::prof::Totals& calling_thread);
};

/// Exclusive share of each phase (inclusive time minus the phases nested in
/// it, see the nesting tables in layers.cpp), the profiler-derived per-call
/// and barrier metrics, and the unattributed remainder. Returns false when a
/// share comes out negative, i.e. the nesting table disagrees with the run.
bool add_share_metrics(RunKind kind, const Profile& profile, Metrics& out);

/// Nanoseconds per call of each layer's public API, driven on the
/// workload's own generated stream and seed. `work_scale` shrinks the call
/// counts (1 = a measured run).
void add_driver_metrics(const coaxial::sim::RunRequest& request, double work_scale,
                        Metrics& out);

}  // namespace bench_perf
