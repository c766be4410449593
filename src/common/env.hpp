// Environment-variable overrides for run budgets, so the full benchmark
// matrix can be scaled up (paper-fidelity) or down (CI) without recompiling.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

namespace coaxial {

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

/// True when `name` is set to a non-empty value other than "0".
inline bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/// Instruction budget per core for benchmark runs (paper: 200M).
inline std::uint64_t bench_instr_budget() { return env_u64("COAXIAL_INSTR", 400'000); }

/// Warmup instructions per core for benchmark runs (paper: 50M).
inline std::uint64_t bench_warmup_budget() { return env_u64("COAXIAL_WARMUP", 120'000); }

/// Host worker-thread override for the benches' parallel run matrices.
/// 0 (the default) means hardware_concurrency.
inline std::size_t coaxial_threads() {
  return static_cast<std::size_t>(env_u64("COAXIAL_THREADS", 0));
}

}  // namespace coaxial
