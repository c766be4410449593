// Conservative-lookahead sharded simulation support (DESIGN.md §14).
//
// A sharded run partitions one simulated system into shards that own
// disjoint component state (for sim::PooledSystem: one shard per host
// slice, plus one shard for the pooled device side). Each shard pumps its
// own cycles independently inside a time quantum Q, where Q is the minimum
// latency any cross-shard message can have (derived from the CXL fabric's
// unloaded serialization + port latencies). Because every cross-shard
// message sent at cycle c arrives no earlier than c + Q, a message sent
// anywhere inside quantum [T, T+Q) arrives at or after T + Q — so shards
// never need to see each other's state mid-quantum. Cross-shard messages
// accumulate in per-(src,dst) outboxes and are drained by the coordinator
// at the barrier between quanta, in a fixed (source-index, FIFO) order.
//
// Determinism: shard-local pumping is sequential per shard, mailbox drain
// order is fixed, and all global predicates (measurement-window open,
// termination) are evaluated only at barriers while every shard is paused.
// No decision anywhere depends on the worker count or on thread timing, so
// any worker count produces byte-identical stats — including one worker,
// which is the default and spawns no threads at all. Measured shard costs
// only decide which OS thread pumps a shard, never what it computes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"

namespace coaxial::sim::shard {

/// Longest-processing-time-first placement. Shards are taken in descending
/// cost (ties: lower shard index first) and each goes to the worker with
/// the least load so far (ties: lower worker index). Worker 0 is the
/// coordinator and starts loaded with `coordinator_cost`, the serial
/// barrier work it runs between rounds. Returns the owning worker of every
/// shard; a pure function of its arguments.
std::vector<std::size_t> plan_placement(const std::vector<double>& shard_cost,
                                        double coordinator_cost,
                                        std::size_t workers);

/// A persistent team of workers executing one "round" (quantum) at a time.
/// Worker 0 is the calling (coordinator) thread, so `workers == 1` spawns no
/// threads, reads no clocks and runs every shard inline — the sequential
/// pump is literally the one-worker case.
///
/// With more workers, shards start striped (shard s on worker s % workers).
/// The team times every shard's pump on a sample of rounds, plus the
/// coordinator's serial work between rounds, and periodically re-plans
/// ownership with plan_placement() from the accumulated costs.
///
/// The start and finish handshakes are an atomic generation counter and an
/// arrival count. A waiter spins for up to kSpinBudget, then parks on a
/// condition variable; a team with more workers than hardware threads never
/// spins, because a spinning waiter would hold the CPU its peer needs.
class WorkerTeam {
 public:
  /// Spin long enough to cover a typical quantum (a few to tens of µs of
  /// pump work per round), short enough that an idle team goes to sleep.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  WorkerTeam(std::size_t workers, std::size_t shards);
  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;
  ~WorkerTeam();

  /// Run fn(s) for every shard, each worker pumping its owned shards in
  /// ascending shard order; blocks until the whole round is done. If shards
  /// threw, the exception of the lowest-numbered worker that caught one is
  /// rethrown here once the round settles.
  void round(const std::function<void(std::size_t)>& fn);

  /// Join the workers and return their summed profiler totals (the
  /// coordinator's own phases live in its thread-local totals already).
  obs::prof::Totals shutdown();

  std::size_t workers() const { return workers_; }
  /// Current owning worker of every shard.
  const std::vector<std::size_t>& owners() const { return owner_; }
  /// Whether waiters spin before parking (false when oversubscribed).
  bool spinning() const { return spin_; }

 private:
  using Clock = std::chrono::steady_clock;

  void worker_loop(std::size_t w);
  void pump(std::size_t w, const std::function<void(std::size_t)>& fn);
  void set_owners(const std::vector<std::size_t>& owner);
  void replan();
  template <class Ready>
  void await(const Ready& ready, std::atomic<std::size_t>& parked,
             std::condition_variable& cv);
  void wake(const std::atomic<std::size_t>& parked, std::condition_variable& cv);

  std::size_t workers_ = 1;
  std::size_t shards_ = 0;
  bool spin_ = false;

  // Placement: written by the coordinator between rounds only.
  std::vector<std::size_t> owner_;
  std::vector<std::vector<std::size_t>> owned_;  ///< Per worker, ascending.

  // Cost sampling (workers > 1 only). Shard s's slot is written by its
  // owner during a sampled round and read by the coordinator after it.
  std::vector<std::uint64_t> shard_ns_;
  std::uint64_t serial_ns_ = 0;
  std::uint64_t serial_samples_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t next_plan_ = 0;
  bool sample_ = false;
  Clock::time_point sampled_round_end_{};

  // Barrier.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> arrived_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> parked_workers_{0};
  std::atomic<std::size_t> parked_coordinator_{0};
  std::mutex park_mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::vector<std::exception_ptr> errors_;  ///< Per worker, this round.
  obs::prof::Totals worker_totals_;          ///< Guarded by park_mutex_.

  std::vector<std::thread> threads_;  ///< Last: the workers use every member.
};

}  // namespace coaxial::sim::shard
