// The bench_perf workloads: which simulation each one runs, how much
// simulated work a run does, the output checks every run must pass, and the
// digest that pins a run's simulated outputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace bench_perf {

/// Which driver loop a request runs; decides the profiler nesting table and
/// how simulated work is counted.
enum class RunKind : std::uint8_t {
  kSystem,            ///< Closed-loop sim::System (cores, caches, memory).
  kService,           ///< Open-loop sim::ServiceDriver (memory only).
  kPooledEngine,      ///< Direct-fabric pool on the sharded quantum engine.
  kPooledSequential,  ///< Switched pool on the sequential per-cycle pump.
};

struct Workload {
  const char* name;
  const char* why;
  /// The request at `scale` times the benchmark budget (1 = a measured run).
  coaxial::sim::RunRequest (*request)(std::uint64_t seed, double scale);
  /// Shard-worker count of a twin run that must print the same digest
  /// (0 = no twin).
  std::uint32_t twin_shards = 0;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

RunKind kind_of(const coaxial::sim::RunRequest& request);

/// Value of one metrics-snapshot path; 0 when the run did not register it
/// (a subsystem the workload does not use).
double metric_at(const coaxial::obs::Snapshot& m, const std::string& path);

/// Simulated cycles of one run, warmup included.
double sim_cycles(const coaxial::sim::RunRequest& request,
                  const coaxial::sim::RunResult& result);

/// Conservation and invariant checks on one run's outputs. Returns one line
/// per failed check; empty means the run is correct.
std::vector<std::string> check_outputs(const coaxial::sim::RunRequest& request,
                                       const coaxial::sim::RunResult& result);

/// 64-bit FNV-1a of sim::stats_json(result) with the host/ subtree removed:
/// equal for runs whose simulated outputs are byte-identical, whatever the
/// profiler or worker count.
std::uint64_t sim_digest(const coaxial::sim::RunResult& result);

}  // namespace bench_perf
