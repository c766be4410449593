#include "layers.hpp"

#include <chrono>
#include <cstdio>
#include <memory>

#include "cache/cache.hpp"
#include "coaxial/configs.hpp"
#include "core/core.hpp"
#include "dram/controller.hpp"
#include "link/cxl_link.hpp"
#include "placement/address_map.hpp"
#include "pool/directory.hpp"
#include "sim/pooled_system.hpp"
#include "workload/arrival.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace bench_perf {

using namespace coaxial;
namespace prof = obs::prof;
using prof::Phase;
using Clock = std::chrono::steady_clock;

namespace {

// ------------------------------------------------------------ model counts

bool contains(const std::string& s, const char* part) {
  return s.find(part) != std::string::npos;
}

/// Sum (and count) of every leaf under a `scope` path segment, e.g. every
/// ".../dram/ctrlNN/reads_done" in a run, whichever memory system owns it.
struct Sum {
  double total = 0;
  double max = 0;
  int n = 0;
};
Sum sum_leaves(const obs::Snapshot& m, const char* scope, const std::string& leaf) {
  Sum s;
  for (const auto& [path, v] : m) {
    if (!contains(path, scope) || !path.ends_with(leaf)) continue;
    s.total += v.as_double();
    s.max = std::max(s.max, v.as_double());
    ++s.n;
  }
  return s;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

void add_count_metrics(const sim::RunRequest& request, const sim::RunResult& result,
                       Metrics& out) {
  const obs::Snapshot& m = result.metrics;
  const RunKind kind = kind_of(request);
  const bool system = kind == RunKind::kSystem;
  const bool pooled = kind == RunKind::kPooledEngine || kind == RunKind::kPooledSequential;
  const sim::RunStats& st = result.stats;
  const double cycles = sim_cycles(request, result);
  const auto add = [&](const char* name, const char* unit, double value) {
    out.push_back({name, unit, value});
  };

  add("core.instructions", "count",
      system ? static_cast<double>(st.instructions)
             : pooled ? static_cast<double>(result.pooled.instructions) : 0.0);
  add("core.ipc", "instr/cycle",
      system ? st.ipc_per_core : pooled ? result.pooled.ipc_mean : 0.0);

  const auto hit_ratio = [&](const char* level) {
    const double hits = sum_leaves(m, level, "/hits").total;
    return ratio(hits, hits + sum_leaves(m, level, "/misses").total);
  };
  add("cache.l1_hit_ratio", "ratio", hit_ratio("cache/l1/"));
  add("cache.llc_hit_ratio", "ratio", hit_ratio("cache/llc/"));
  add("cache.llc_mpki", "miss/kinstr", system ? st.llc_mpki() : 0.0);
  add("cache.prefetches", "count", system ? static_cast<double>(st.prefetches) : 0.0);

  const Sum reads = sum_leaves(m, "/dram/ctrl", "/reads_done");
  const double hits = sum_leaves(m, "/dram/ctrl", "/row_hits").total;
  const double cas = hits + sum_leaves(m, "/dram/ctrl", "/row_misses").total +
                     sum_leaves(m, "/dram/ctrl", "/row_conflicts").total;
  add("dram.reads", "count", reads.total);
  add("dram.writes", "count", sum_leaves(m, "/dram/ctrl", "/writes_done").total);
  add("dram.row_hit_rate", "ratio", ratio(hits, cas));
  add("dram.queue_ns", "ns",
      ratio(sum_leaves(m, "/dram/ctrl", "/read_queue_delay_sum").total, reads.total) *
          kNsPerCycle);
  add("dram.bus_util", "ratio",
      ratio(sum_leaves(m, "/dram/ctrl", "/data_bus_busy_cycles").total, reads.n * cycles));

  const Sum tx = sum_leaves(m, "/cxl/link", "/tx/messages");
  const Sum rx = sum_leaves(m, "/cxl/link", "/rx/messages");
  add("link.tx_msgs", "count", tx.total);
  add("link.rx_msgs", "count", rx.total);
  add("link.queue_cycles", "cycles",
      ratio(sum_leaves(m, "/cxl/link", "/queue_delay_sum").total, tx.total + rx.total));
  add("link.util", "ratio",
      ratio(sum_leaves(m, "/cxl/link", "/busy_cycles").total, 2.0 * tx.n * cycles));

  double switch_msgs = 0;
  for (const auto& [path, v] : m) {
    if (contains(path, "/fabric/sw") && contains(path, "/out") &&
        path.ends_with("/messages")) {
      switch_msgs += v.as_double();
    }
  }
  add("fabric.switch_msgs", "count", switch_msgs);
  add("fabric.queue_high_water", "count",
      sum_leaves(m, "/fabric/sw", "/queue_high_water").max);

  const double cxl_queue_ns =
      system ? st.avg_cxl_queue_ns()
      : kind == RunKind::kService
          ? ratio(result.service.mem.cxl_queue_sum,
                  static_cast<double>(result.service.mem.reads)) * kNsPerCycle
          : 0.0;
  add("mem.cxl_queue_ns", "ns", cxl_queue_ns);
  const double decisions = metric_at(m, "calm/decisions");
  add("calm.decisions", "count", decisions);
  add("calm.accuracy", "ratio",
      ratio(metric_at(m, "calm/true_positives") + metric_at(m, "calm/true_negatives"),
            decisions));

  add("tier.promotions", "count", metric_at(m, "tier/promotions"));
  add("tier.demotions", "count", metric_at(m, "tier/demotions"));
  add("tier.migration_mb", "MiB",
      metric_at(m, "tier/migration_bytes") / (1024.0 * 1024.0));
  add("tier.fast_fraction", "ratio", metric_at(m, "tier/fast/fraction"));
  add("tier.epochs", "count", metric_at(m, "tier/epochs"));

  add("pool.txns", "count", metric_at(m, "pool/coh/txns"));
  add("pool.invals_sent", "count", metric_at(m, "pool/coh/invals_sent"));
  add("pool.pingpong", "count", metric_at(m, "pool/coh/pingpong"));
  add("pool.recalls_dirty", "count", metric_at(m, "pool/coh/recalls_dirty"));
  add("pool.dir_evictions", "count", metric_at(m, "pool/dir/evictions"));
  add("pool.dep_stall_cycles", "cycles",
      sum_leaves(m, "pool/host/", "/dep_stall_cycles").total);
  add("pool.read_p99_ns", "ns", pooled ? result.pooled.read_p99_ns : 0.0);

  add("sim.cycles", "cycles", cycles);
  add("sched.events", "count", system ? static_cast<double>(st.sched_events) : 0.0);
  add("sched.skip_ratio", "ratio", system ? st.sched_skip_ratio() : 0.0);

  add("shard.workers", "count", static_cast<double>(result.shards));
  add("shard.lookahead_cycles", "cycles",
      pooled ? static_cast<double>(
                   sim::PooledSystem(request.pool, request.seed).lookahead())
             : 0.0);
}

// -------------------------------------------------------- exclusive shares

void Profile::add(const sim::RunRequest& request, const sim::RunResult& traced,
                  const prof::Totals& calling_thread) {
  const bool published = traced.metrics.count("host/prof/dram_tick/ns") != 0;
  for (std::size_t i = 0; i < prof::kPhaseCount; ++i) {
    const std::string base =
        std::string("host/prof/") + prof::phase_name(static_cast<Phase>(i));
    ns[i] += published ? metric_at(traced.metrics, base + "/ns")
                       : static_cast<double>(calling_thread.ns[i]);
    calls[i] += published ? metric_at(traced.metrics, base + "/calls")
                          : static_cast<double>(calling_thread.calls[i]);
  }
  thread_ns += traced.host_seconds * 1e9 * traced.shards;
  ++runs;

  if (kind_of(request) != RunKind::kSystem) return;
  // Zero budgets: run() pre-warms, then takes a single loop step.
  const std::vector<workload::WorkloadParams> per_core(
      request.config.uarch.cores, workload::find_workload(request.workloads.front()));
  sim::System system(request.config, per_core, request.seed);
  prof::set_enabled(true);
  const prof::Totals base = prof::thread_totals();
  system.run(0, 0);
  const prof::Totals delta = prof::thread_totals().delta_since(base);
  prof::set_enabled(false);
  prewarm_cache_ns +=
      static_cast<double>(delta.ns[static_cast<std::size_t>(Phase::kCacheAccess)]);
}

namespace {

/// The run itself: the root every top-level phase nests in.
constexpr int kRun = -1;

struct Nest {
  Phase phase;
  std::vector<int> parents;  ///< Phases (or kRun) whose scopes enclose it.
};

int ix(Phase p) { return static_cast<int>(p); }

/// Which phase scopes enclose which, written down from the
/// COAXIAL_PROF_SCOPE call sites in src/ for each driver loop. A phase with
/// several parents is entered from each of them (cache accesses happen in
/// core ticks and in the event drain).
const std::vector<Nest>& nesting(RunKind kind) {
  static const std::vector<Nest> system = {
      {Phase::kSchedDispatch, {kRun}},
      {Phase::kEventDrain, {ix(Phase::kSchedDispatch)}},
      {Phase::kMemPump, {ix(Phase::kSchedDispatch)}},
      {Phase::kCoreTick, {ix(Phase::kSchedDispatch)}},
      {Phase::kWorkloadGen, {ix(Phase::kCoreTick)}},
      {Phase::kDramTick, {ix(Phase::kMemPump)}},
      {Phase::kDramTryIssue, {ix(Phase::kDramTick)}},
      {Phase::kFabricArb, {ix(Phase::kMemPump)}},
      {Phase::kCacheAccess, {ix(Phase::kCoreTick), ix(Phase::kEventDrain)}},
      {Phase::kMshr,
       {ix(Phase::kCoreTick), ix(Phase::kEventDrain), ix(Phase::kMemPump)}},
      {Phase::kLinkSerialize,
       {ix(Phase::kEventDrain), ix(Phase::kMemPump), ix(Phase::kFabricArb)}},
  };
  // ServiceDriver::run and PooledSystem::run_sequential open no phase of
  // their own: the memory tick and host-side sends run at the top level.
  static const std::vector<Nest> flat = {
      {Phase::kDramTick, {kRun}},
      {Phase::kDramTryIssue, {ix(Phase::kDramTick)}},
      {Phase::kFabricArb, {kRun}},
      {Phase::kLinkSerialize, {kRun, ix(Phase::kFabricArb)}},
  };
  static const std::vector<Nest> engine = {
      {Phase::kShardPump, {kRun}},
      {Phase::kShardBarrier, {kRun}},
      {Phase::kShardDrain, {kRun}},
      {Phase::kDramTick, {ix(Phase::kShardPump)}},
      {Phase::kDramTryIssue, {ix(Phase::kDramTick)}},
      {Phase::kLinkSerialize, {ix(Phase::kShardPump)}},
  };
  switch (kind) {
    case RunKind::kSystem:
      return system;
    case RunKind::kPooledEngine:
      return engine;
    case RunKind::kService:
    case RunKind::kPooledSequential:
      break;
  }
  return flat;
}

const char* share_metric(Phase p) {
  switch (p) {
    case Phase::kCoreTick: return "core.share";
    case Phase::kWorkloadGen: return "workload.share";
    case Phase::kCacheAccess: return "cache.share";
    case Phase::kMshr: return "cache.mshr_share";
    case Phase::kDramTick: return "dram.tick_share";
    case Phase::kDramTryIssue: return "dram.issue_share";
    case Phase::kLinkSerialize: return "link.share";
    case Phase::kFabricArb: return "fabric.share";
    case Phase::kMemPump: return "mem.pump_share";
    case Phase::kEventDrain: return "sim.events_share";
    case Phase::kSchedDispatch: return "sim.dispatch_share";
    case Phase::kShardPump: return "shard.pump_share";
    case Phase::kShardBarrier: return "shard.barrier_wait_share";
    case Phase::kShardDrain: return "shard.drain_share";
    case Phase::kCount: break;
  }
  return "";
}

}  // namespace

bool add_share_metrics(RunKind kind, const Profile& profile, Metrics& out) {
  constexpr std::size_t n = prof::kPhaseCount;
  // excl[n] is the run root; everything starts at its inclusive time.
  std::vector<double> excl(profile.ns, profile.ns + n);
  excl.push_back(profile.thread_ns);
  const auto slot = [&](int p) -> double& { return excl[p == kRun ? n : p]; };
  const auto active = [&](int p) { return p == kRun || profile.calls[p] > 0; };

  // Child time still to subtract from its parents.
  std::vector<double> child(profile.ns, profile.ns + n);

  // A child entered from one parent is subtracted from it exactly, so a
  // negative share there means the nesting table is wrong. A child entered
  // from several is split over them in proportion to the time each still
  // has left, never more than that; whatever the parents cannot hold stays
  // with the run. The aggregate profiler does not record which parent each
  // call came from, so that split is an estimate.
  for (const bool shared_pass : {false, true}) {
    if (shared_pass) {
      // The pre-warm's cache fills ran outside every other phase, so they
      // come off the run itself, as far as the time left outside the
      // top-level phases allows (the pre-warm was timed in another run).
      double& cache = child[ix(Phase::kCacheAccess)];
      const double prewarm =
          std::min({cache, profile.prewarm_cache_ns, std::max(slot(kRun), 0.0)});
      cache -= prewarm;
      slot(kRun) -= prewarm;
    }
    for (const Nest& nest : nesting(kind)) {
      const double t = child[ix(nest.phase)];
      if (t == 0) continue;
      std::vector<int> parents;
      for (int p : nest.parents) {
        if (active(p)) parents.push_back(p);
      }
      if (parents.empty()) parents.push_back(kRun);
      if ((parents.size() > 1) != shared_pass) continue;
      if (!shared_pass) {
        slot(parents.front()) -= t;
        continue;
      }
      double room = 0;
      for (int p : parents) room += std::max(slot(p), 0.0);
      const double fits = std::min(t, room);
      for (int p : parents) {
        if (room > 0) slot(p) -= fits * std::max(slot(p), 0.0) / room;
      }
      slot(kRun) -= t - fits;
    }
  }

  bool nonnegative = true;
  double attributed = 0;
  const auto push = [&](const char* name, double share) {
    if (share < 0) {
      std::fprintf(stderr, "[trace] negative exclusive share %s = %g\n", name, share);
      nonnegative = false;
    }
    out.push_back({name, "ratio", share});
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double share = ratio(excl[i], profile.thread_ns);
    attributed += share;
    push(share_metric(static_cast<Phase>(i)), share);
  }
  push("trace.unattributed_share", 1.0 - attributed);
  const std::size_t issue = static_cast<std::size_t>(Phase::kDramTryIssue);
  out.push_back({"dram.issue_ns_per_call", "ns",
                 ratio(profile.ns[issue], profile.calls[issue])});
  out.push_back({"shard.barriers", "count",
                 ratio(profile.calls[static_cast<std::size_t>(Phase::kShardDrain)],
                       profile.runs)});
  return nonnegative;
}

// ------------------------------------------------------------ layer drivers

namespace {

struct MemOp {
  Addr line = 0;
  bool write = false;
};

/// The workload's own request stream: an instruction stream for
/// closed-loop workloads, arrivals (as one load or store each) for the
/// open-loop one. Generating it is the workload layer's measurement.
struct Stream {
  std::vector<workload::Instr> instrs;
  std::vector<MemOp> ops;
  double next_ns = 0;  ///< Host ns per draw from the workload's source.
};

/// The catalog workload a closed-loop request runs (on every core or host).
const std::string& catalog_name(const sim::RunRequest& request) {
  return request.pool.enabled() ? request.pool.workload : request.workloads.front();
}

Stream make_stream(const sim::RunRequest& request, std::size_t draws) {
  Stream s;
  s.instrs.reserve(draws);
  const auto t0 = Clock::now();
  if (request.service.enabled()) {
    // ServiceDriver's own arrival streams: one generator per tenant at its
    // configured rate, merged in arrival order.
    const double peak_lines = bytes_per_cycle(request.config.peak_memory_gbps()) /
                              static_cast<double>(kLineBytes);
    std::vector<workload::ArrivalGenerator> gens;
    std::vector<workload::ServiceRequest> head;
    for (std::uint32_t i = 0; i < request.service.tenants.size(); ++i) {
      const workload::ArrivalConfig& a = request.service.tenants[i].arrival;
      gens.emplace_back(a, a.offered_load * peak_lines, i, request.seed);
      head.push_back(gens.back().next());
    }
    while (s.instrs.size() < draws) {
      std::size_t t = 0;
      for (std::size_t i = 1; i < head.size(); ++i) {
        if (head[i].at < head[t].at) t = i;
      }
      workload::Instr in;
      in.kind = head[t].is_write ? workload::InstrKind::kStore : workload::InstrKind::kLoad;
      in.addr = head[t].line * kLineBytes;
      s.instrs.push_back(in);
      head[t] = gens[t].next();
    }
  } else {
    workload::Generator gen(workload::find_workload(catalog_name(request)), 0, request.seed);
    while (s.instrs.size() < draws) s.instrs.push_back(gen.next());
  }
  s.next_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
              static_cast<double>(draws);
  for (const workload::Instr& in : s.instrs) {
    if (in.kind == workload::InstrKind::kAlu) continue;
    s.ops.push_back({in.addr / kLineBytes, in.kind == workload::InstrKind::kStore});
  }
  return s;
}

/// Median ns per call of `body` (which returns its call count) over three
/// repetitions.
template <typename Body>
double ns_per_call(Body&& body) {
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    const double calls = static_cast<double>(body());
    const double elapsed =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    ns.push_back(ratio(elapsed, calls));
  }
  return median(ns);
}

/// Replays a recorded instruction stream in a loop.
class ReplaySource final : public workload::InstrSource {
 public:
  explicit ReplaySource(const std::vector<workload::Instr>& instrs) : instrs_(instrs) {}
  workload::Instr next() override {
    const workload::Instr& in = instrs_[pos_];
    pos_ = pos_ + 1 == instrs_.size() ? 0 : pos_ + 1;
    return in;
  }

 private:
  const std::vector<workload::Instr>& instrs_;
  std::size_t pos_ = 0;
};

/// A memory port that answers every access as an L1 hit, so the core
/// driver times the core alone.
class HitPort final : public core::MemoryPort {
 public:
  core::IssueResult issue_load(std::uint32_t, Addr, Addr, std::uint64_t, Cycle) override {
    return core::IssueResult::kHitL1;
  }
  core::IssueResult issue_store(std::uint32_t, Addr, Addr, std::uint64_t, Cycle) override {
    return core::IssueResult::kHitL1;
  }
};

std::size_t scaled(double calls, double work_scale) {
  return std::max<std::size_t>(16, static_cast<std::size_t>(calls * work_scale));
}

}  // namespace

void add_driver_metrics(const sim::RunRequest& request, double work_scale,
                        Metrics& out) {
  const Stream stream = make_stream(request, scaled(400'000, work_scale));
  const std::vector<MemOp>& ops = stream.ops;
  // Pooled runs carry no SystemConfig; they get COAXIAL-4x's geometry.
  const sys::SystemConfig cfg = request.pool.enabled() ? sys::coaxial_4x() : request.config;
  const sys::MicroarchConfig& uarch = cfg.uarch;
  const std::size_t op_calls = std::min(ops.size(), scaled(200'000, work_scale));

  const double max_ipc = request.service.enabled()
                             ? workload::WorkloadParams{}.max_ipc
                             : workload::find_workload(catalog_name(request)).max_ipc;
  const double core_ns = ns_per_call([&] {
    core::Core core(0, uarch, std::make_unique<ReplaySource>(stream.instrs), max_ipc);
    HitPort port;
    const std::size_t ticks = scaled(200'000, work_scale);
    for (Cycle now = 1; now <= ticks; ++now) core.tick(now, port);
    return ticks;
  });
  out.push_back({"core.ns_per_call", "ns", core_ns});
  out.push_back({"workload.next_ns", "ns", stream.next_ns});

  // One LLC slice of the workload's configuration.
  const auto llc = [&] {
    return cache::Cache(static_cast<std::size_t>(uarch.llc_mb_per_core) << 20,
                        uarch.llc_ways, uarch.llc_replacement);
  };
  cache::Cache warm = llc();
  for (std::size_t i = 0; i < op_calls; ++i) {
    if (!warm.lookup(ops[i].line)) warm.fill(ops[i].line, ops[i].write);
  }
  out.push_back({"cache.lookup_ns", "ns", ns_per_call([&] {
                   for (std::size_t i = 0; i < op_calls; ++i) warm.lookup(ops[i].line);
                   return op_calls;
                 })});
  out.push_back({"cache.fill_ns", "ns", ns_per_call([&] {
                   cache::Cache c = llc();
                   for (std::size_t i = 0; i < op_calls; ++i) {
                     c.fill(ops[i].line, ops[i].write);
                   }
                   return op_calls;
                 })});

  // One DDR5 sub-channel: enqueue every op as soon as its queue has room,
  // tick every cycle, until the last read has completed.
  const std::size_t dram_calls = std::min(op_calls, scaled(40'000, work_scale));
  out.push_back({"dram.req_ns", "ns", ns_per_call([&] {
                   dram::Controller c(cfg.dram_timing, cfg.dram_geometry);
                   std::size_t next = 0;
                   std::size_t reads_pending = 0;
                   for (Cycle now = 1; next < dram_calls || reads_pending > 0; ++now) {
                     if (next < dram_calls && c.can_accept(ops[next].write)) {
                       c.enqueue(ops[next].line, ops[next].write, now, next);
                       reads_pending += !ops[next].write;
                       ++next;
                     }
                     c.tick(now);
                     reads_pending -= c.completions().size();
                     c.completions().clear();
                   }
                   return dram_calls;
                 })});

  // Reads send a request down and a line back; writes send a line down.
  out.push_back({"link.send_ns", "ns", ns_per_call([&] {
                   link::CxlLink l(link::LaneConfig::x8(), Cycle{1} << 40);
                   std::size_t sends = 0;
                   Cycle now = 0;
                   for (std::size_t i = 0; i < op_calls; ++i, now += 4) {
                     if (ops[i].write) {
                       l.send_tx(link::kWriteMessageBytes, now);
                       ++sends;
                     } else {
                       l.send_tx(link::kReadRequestBytes, now);
                       l.send_rx(link::kReadResponseBytes, now);
                       sends += 2;
                     }
                   }
                   return sends;
                 })});

  // The tiered preset's stage-1 map with half its dynamic frames holding
  // the stream's first distinct pages, so lookups see remaps and ranges.
  placement::AddressMap amap = placement::AddressMap::tiered(sys::coaxial_tiered().tiering);
  const std::uint32_t promote = amap.free_frames() / 2;
  for (std::size_t i = 0, done = 0; i < op_calls && done < promote; ++i) {
    const Addr page = amap.page_of(ops[i].line);
    if (amap.remapped(page) || amap.native_fast(page)) continue;
    amap.install_promotion(page, amap.alloc_frame(), 0);
    ++done;
  }
  out.push_back({"placement.translate_ns", "ns", ns_per_call([&] {
                   // translate() is pure: keep its results alive.
                   Addr sum = 0;
                   for (std::size_t i = 0; i < op_calls; ++i) {
                     sum += amap.translate(ops[i].line).local_line;
                   }
                   volatile Addr sink = sum;
                   (void)sink;
                   return op_calls;
                 })});

  // The pool preset's directory, with the stream's pages folded into its
  // shared window and accesses dealt round-robin to its hosts; every
  // transaction completes at once.
  const pool::PoolConfig pc = sys::coaxial_pooled(4);
  const std::size_t dir_calls = std::min(op_calls, scaled(20'000, work_scale));
  out.push_back({"pool.dir_access_ns", "ns", ns_per_call([&] {
                   pool::Directory dir(pc.directory_entries, pc.n_hosts);
                   for (std::size_t i = 0; i < dir_calls; ++i) {
                     const Addr page = ops[i].line / pc.page_lines % pc.shared_pages;
                     const auto host = static_cast<std::uint32_t>(i % pc.n_hosts);
                     const auto d = dir.access(page, host, ops[i].write);
                     if (d.needs_txn) dir.unlock(page);
                   }
                   return dir_calls;
                 })});
}

}  // namespace bench_perf
