// bench_perf: host-performance benchmark of the COAXIAL simulator.
//
//   bench_perf --workload W [--seed N] [--seconds S] [--trace 0|1]
//   bench_perf --smoke
//
// One invocation runs one workload (workloads.cpp) built from one seed. It
// makes an untimed warm-up run, then repeats the same sim::run_one request
// untraced for --seconds, with a host probe between runs, and reports
// medians of the end-to-end metrics: simulated cycles per host second of
// the timed run and set-up time (run_one wall time minus the run's own
// host_seconds), both calibrated to a reference host speed by the probe,
// and peak RSS. With --trace 1 each round adds a profiled run, and the
// invocation reports the per-layer metrics (layers.hpp) instead. Every
// run's outputs are checked, and every run must print the warm-up run's
// sim_digest; a run that throws or fails a check counts as failed.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it carries sim_digest and the host's provenance.
//
// --smoke runs every workload at 1/50 of its budget, untraced and traced,
// and checks that every metric BENCHMARK.json names is printed with its
// unit and that every digest twin agrees.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#if __has_include(<malloc.h>)
#include <malloc.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "obs/profiler.hpp"
#include "obs/stats_json.hpp"
#include "workloads.hpp"

namespace {

using namespace bench_perf;
namespace sim = coaxial::sim;
namespace prof = coaxial::obs::prof;
namespace json = coaxial::obs::json;
using Clock = std::chrono::steady_clock;

constexpr double kSmokeScale = 0.02;
constexpr double kSmokeDriverScale = 0.05;

/// Each of these makes the library run a different program than users run
/// by default, so a measurement taken with one set means nothing.
constexpr const char* kRefusedEnv[] = {"COAXIAL_TICK_EVERY_CYCLE", "COAXIAL_NO_READY_CACHE",
                                       "COAXIAL_SHARDS", "COAXIAL_PROF"};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ----------------------------------------------------------------- runner

struct Timed {
  sim::RunResult result;
  double wall_s = 0;
  prof::Totals calling_thread;  ///< Profiler delta of this thread over run_one.
};

/// Runs requests of one invocation, checks their outputs and digests, and
/// keeps the attempted / failed counts.
class Runner {
 public:
  std::optional<Timed> run(const sim::RunRequest& request, bool traced) {
    ++attempted_;
#ifdef __GLIBC__
    // Start every run from a heap handed back to the system, as a fresh
    // process would: set-up then pays its page faults each time, instead
    // of depending on what earlier runs left in the allocator (which made
    // it drift 2x within one invocation).
    malloc_trim(0);
#endif
    prof::set_enabled(traced);
    Timed t;
    try {
      const prof::Totals base = prof::thread_totals();
      const auto t0 = Clock::now();
      t.result = sim::run_one(request);
      t.wall_s = seconds_since(t0);
      t.calling_thread = prof::thread_totals().delta_since(base);
    } catch (const std::exception& e) {
      prof::set_enabled(false);
      fail(std::string("run threw: ") + e.what());
      return std::nullopt;
    }
    prof::set_enabled(false);
    std::vector<std::string> failures = check_outputs(request, t.result);
    const std::uint64_t d = sim_digest(t.result);
    if (!digest_) digest_ = d;
    if (d != *digest_) {
      failures.push_back("sim_digest " + hex(d) + " differs from " + hex(*digest_) +
                         (traced ? " (traced run)" : "") +
                         (request.shards > 1 ? " (shard workers)" : ""));
    }
    if (!failures.empty()) {
      for (const std::string& f : failures) std::fprintf(stderr, "[check] %s\n", f.c_str());
      ++failed_;
    }
    return t;
  }

  void fail(const std::string& why) {
    std::fprintf(stderr, "[fail] %s\n", why.c_str());
    ++failed_;
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  std::uint64_t digest() const { return digest_.value_or(0); }

 private:
  int attempted_ = 0;
  int failed_ = 0;
  std::optional<std::uint64_t> digest_;
};

// ------------------------------------------------------------- host probe

/// Probe time that defines the reference host speed of the calibrated
/// timings (the probe takes 17-20 ms on a 4-thread Xeon container).
constexpr double kProbeReferenceMs = 20.0;

/// Milliseconds of fixed loops that run no simulator code: unpredictable
/// branches, then random read-modify-writes over a 1 MiB (private cache),
/// a 4 MiB (shared last-level cache) and a 64 MiB (memory) table, about
/// 5 ms each. Neighbours on a shared host slow the simulator and these
/// loops together; the simulator's hot paths mix all four kinds of work,
/// and no single loop tracks every workload.
double host_probe_ms() {
  static std::vector<std::uint32_t> table(std::size_t{64} << 18);
  static std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto walk = [&](std::size_t entries, std::uint32_t iters) {
    for (std::uint32_t i = 0; i < iters; ++i) table[next() & (entries - 1)] += i;
  };
  const auto t0 = Clock::now();
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < (1u << 20); ++i) {
    const std::uint64_t v = next();
    if (v & 1) {
      acc += v >> 5;
    } else {
      acc ^= v;
    }
    if ((v >> 7) & 3) acc = acc * 3 + 1;
  }
  table[0] += static_cast<std::uint32_t>(acc);
  walk(std::size_t{1} << 18, 1u << 21);
  walk(std::size_t{1} << 20, 1u << 20);
  walk(table.size(), 1u << 19);
  return 1e3 * seconds_since(t0);
}

/// Timings of one invocation's timed runs. Calibrated values are scaled by
/// kProbeReferenceMs over the mean of the probes taken just before and
/// just after the run: what the run would have taken on the reference host.
struct Timings {
  std::vector<double> run_s;      ///< host_seconds, calibrated.
  std::vector<double> setup_s;    ///< run_one wall time - host_seconds, calibrated.
  std::vector<double> raw_run_s;  ///< host_seconds as measured.
  std::vector<double> traced_s;   ///< Traced runs' host_seconds as measured.
  std::vector<double> probe_ms;

  void add(const Timed& untraced, double probe_before, double probe_after) {
    const double scale = 2 * kProbeReferenceMs / (probe_before + probe_after);
    const double host = untraced.result.host_seconds;
    raw_run_s.push_back(host);
    run_s.push_back(host * scale);
    setup_s.push_back((untraced.wall_s - host) * scale);
  }
};

/// Hardware threads this process may run on, as `nproc` counts them: the
/// CPU affinity mask, which a container's CPU set narrows, not the host's
/// online CPUs that std::thread::hardware_concurrency reports.
unsigned nproc() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------- metrics

/// Peak resident set of this process image, in MiB. VmHWM starts afresh at
/// exec; getrusage's ru_maxrss would also count the launcher's peak.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

Metrics end_to_end(double sim_cycles, const Timings& t, double rss_mib) {
  const double run_s = median(t.run_s);
  return {
      {"sim_mcps", "Mcycle/s", run_s > 0 ? sim_cycles / run_s / 1e6 : 0.0},
      {"setup_s", "s", median(t.setup_s)},
      {"peak_rss_mb", "MiB", rss_mib},
  };
}

/// Per-layer metrics from the untraced reference run, the traced runs'
/// profile, and the layer drivers.
Metrics per_layer(const sim::RunRequest& request, const sim::RunResult& reference,
                  const Profile& profile, const Timings& t, double driver_scale,
                  Runner& runner) {
  Metrics m;
  add_count_metrics(request, reference, m);
  if (!add_share_metrics(kind_of(request), profile, m)) {
    runner.fail("negative exclusive share: the profiler nesting table disagrees "
                "with the run");
  }
  add_driver_metrics(request, driver_scale, m);
  m.push_back({"host.calib_ms", "ms", median(t.probe_ms)});
  const double u = median(t.raw_run_s);
  m.push_back({"trace.overhead", "ratio", u > 0 ? median(t.traced_s) / u : 0.0});
  return m;
}

// ----------------------------------------------------------------- output

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned top = 0, ebx = 0, ecx = 0, edx = 0;
  __get_cpuid(0x80000000u, &top, &ebx, &ecx, &edx);
  if (top >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string metrics_object(const Metrics& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + json::escape(metrics[i].name) + "\": {\"value\": " +
         json::number(metrics[i].value) + ", \"unit\": \"" + json::escape(metrics[i].unit) +
         "\"}";
  }
  return s + "}";
}

void print_report(const std::string& workload, std::uint64_t seed, bool trace,
                  unsigned shard_workers, const Timings& t, std::uint64_t digest,
                  const Metrics& metrics, const Runner& runner) {
  const unsigned cpus = nproc();
  std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"timed_runs\": %zu, "
      "\"raw_run_s\": %s, \"host_probe_ms\": %s, \"sim_digest\": \"%s\", "
      "\"provenance\": {\"cpu\": \"%s\", \"nproc\": %u, \"shard_workers\": %u, "
      "\"oversubscribed\": %s, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\"}}\n",
      json::escape(workload).c_str(), static_cast<unsigned long long>(seed), trace ? 1 : 0,
      t.run_s.size(), json::number(median(t.raw_run_s)).c_str(),
      json::number(median(t.probe_ms)).c_str(), hex(digest).c_str(),
      json::escape(cpu_model()).c_str(), cpus, shard_workers,
      shard_workers > cpus ? "true" : "false", json::escape(compiler()).c_str(), BENCH_PERF_BUILD_TYPE, BENCH_PERF_GIT_SHA);
  const bool correct = runner.failed() == 0 && !t.run_s.empty();
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", runner.attempted(), runner.failed(),
              metrics_object(metrics).c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------ measurement

/// Everything one invocation measures.
struct Invocation {
  Runner runner;
  std::optional<Timed> reference;  ///< Untimed warm-up run.
  double rss_mib = 0;
  Timings timings;
  Profile profile;
};

/// The untimed warm-up run (the digest and count reference) and the
/// workload's twin run, then rounds of an untraced run (plus a traced one
/// when `trace`) each followed by a host probe, for at least one round and
/// at least `seconds`.
Invocation collect(const Workload& w, const sim::RunRequest& request, double seconds,
                   bool trace) {
  Invocation inv;
  inv.reference = inv.runner.run(request, false);
  if (w.twin_shards != 0) {
    sim::RunRequest twin = request;
    twin.shards = w.twin_shards;
    inv.runner.run(twin, false);
  }
  inv.rss_mib = peak_rss_mib();  // Before the probe's table exists.

  Timings& t = inv.timings;
  t.probe_ms.push_back(host_probe_ms());
  const auto t0 = Clock::now();
  do {
    const std::optional<Timed> untraced = inv.runner.run(request, false);
    const std::optional<Timed> traced =
        trace ? inv.runner.run(request, true) : std::nullopt;
    t.probe_ms.push_back(host_probe_ms());
    if (untraced) t.add(*untraced, t.probe_ms.end()[-2], t.probe_ms.back());
    if (traced) {
      t.traced_s.push_back(traced->result.host_seconds);
      inv.profile.add(request, traced->result, traced->calling_thread);
    }
  } while (seconds_since(t0) < seconds);
  return inv;
}

int measure(const Workload& w, std::uint64_t seed, double seconds, bool trace) {
  const sim::RunRequest request = w.request(seed, 1.0);
  const unsigned shard_workers = std::max(1u, request.shards);
  if (shard_workers > nproc()) {
    std::fprintf(stderr,
                 "bench_perf: warning: %u shard workers on %u hardware threads; the "
                 "timings measure oversubscription (provenance.oversubscribed)\n",
                 shard_workers, nproc());
  }
  Invocation inv = collect(w, request, seconds, trace);
  Metrics metrics;
  if (inv.reference) {
    const sim::RunResult& ref = inv.reference->result;
    metrics = trace ? per_layer(request, ref, inv.profile, inv.timings, 1.0, inv.runner)
                    : end_to_end(sim_cycles(request, ref), inv.timings, inv.rss_mib);
  }
  print_report(w.name, seed, trace, shard_workers, inv.timings, inv.runner.digest(), metrics,
               inv.runner);
  return inv.runner.failed() == 0 && inv.reference ? 0 : 1;
}

// ------------------------------------------------------------------ smoke

/// name -> `field` of every entry of one BENCHMARK.json array.
std::map<std::string, std::string> manifest(const json::Flat& doc,
                                            const std::string& section, const char* field) {
  std::map<std::string, std::string> out;
  for (int i = 0;; ++i) {
    char idx[8];
    std::snprintf(idx, sizeof idx, "%03d", i);
    const std::string entry = section + "/" + idx + "/";
    const auto name = doc.find(entry + "name");
    if (name == doc.end()) return out;
    const auto value = doc.find(entry + field);
    out[name->second.str] = value == doc.end() ? "" : value->second.str;
  }
}

int smoke() {
  std::ifstream in(BENCH_PERF_MANIFEST);
  if (!in) {
    std::fprintf(stderr, "smoke: cannot read %s\n", BENCH_PERF_MANIFEST);
    return 1;
  }
  std::stringstream text;
  text << in.rdbuf();
  const json::Flat doc = json::parse_flat(text.str());
  const auto e2e_names = manifest(doc, "end_to_end", "unit");
  const auto layer_names = manifest(doc, "per_layer", "unit");
  const auto workload_names = manifest(doc, "workloads", "why");

  int problems = 0;
  const auto problem = [&](const std::string& what) {
    std::fprintf(stderr, "smoke: %s\n", what.c_str());
    ++problems;
  };
  const auto check_printed = [&](const std::string& workload, const Metrics& printed,
                                 const std::map<std::string, std::string>& wanted,
                                 bool nonzero) {
    std::map<std::string, const Metric*> by_name;
    for (const Metric& m : printed) by_name[m.name] = &m;
    for (const auto& [name, unit] : wanted) {
      const auto it = by_name.find(name);
      if (it == by_name.end()) {
        problem(workload + ": metric " + name + " not printed");
      } else if (it->second->unit != unit) {
        problem(workload + ": metric " + name + " printed in " + it->second->unit +
                ", BENCHMARK.json says " + unit);
      } else if (nonzero && !(it->second->value > 0)) {
        problem(workload + ": end-to-end metric " + name + " is not positive");
      }
    }
    for (const Metric& m : printed) {
      if (!wanted.count(m.name)) {
        problem(workload + ": metric " + m.name + " not in BENCHMARK.json");
      }
    }
  };

  std::map<std::string, std::uint64_t> digests;
  for (const Workload& w : workloads()) {
    if (!workload_names.count(w.name)) {
      problem(std::string("workload ") + w.name + " not in BENCHMARK.json");
    }
    const auto t0 = Clock::now();
    const sim::RunRequest request = w.request(7, kSmokeScale);
    Invocation inv = collect(w, request, 0, /*trace=*/true);
    if (!inv.reference || inv.timings.run_s.empty() || inv.timings.traced_s.empty()) {
      problem(std::string(w.name) + ": run failed");
      continue;
    }
    const sim::RunResult& ref = inv.reference->result;
    check_printed(w.name, end_to_end(sim_cycles(request, ref), inv.timings, inv.rss_mib),
                  e2e_names, true);
    check_printed(w.name,
                  per_layer(request, ref, inv.profile, inv.timings, kSmokeDriverScale,
                            inv.runner),
                  layer_names, false);
    if (inv.runner.failed() != 0) problem(std::string(w.name) + ": failed checks");
    digests[w.name] = inv.runner.digest();
    std::printf("smoke %-16s %s  %.2f s\n", w.name, hex(inv.runner.digest()).c_str(),
                seconds_since(t0));
  }
  if (digests["pool4h-w1"] != digests["pool4h-w4"]) {
    problem("pool4h-w1 and pool4h-w4 print different sim_digest");
  }
  for (const auto& [name, why] : workload_names) {
    if (!find_workload(name)) problem("BENCHMARK.json workload " + name + " is not defined");
  }
  std::printf("smoke: %s\n", problems == 0 ? "ok" : "FAILED");
  return problems == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_perf: %s\nusage: bench_perf --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1]\n       bench_perf --smoke\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* var : kRefusedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "bench_perf: refusing to run with %s set: it changes the "
                   "measured program\n",
                   var);
      return 2;
    }
  }

  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") return smoke();
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      trace = true;
      if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                        std::strcmp(argv[i + 1], "1") == 0)) {
        trace = argv[++i][0] == '1';
      }
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage("missing or unknown --workload");
  return measure(*w, seed, seconds, trace);
}
