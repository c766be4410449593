#include "sim/shard.hpp"

#include <algorithm>
#include <numeric>

namespace coaxial::sim::shard {

namespace {

// Cost sampling cadence: every kSampleStride-th round is timed, and
// ownership is re-planned at round kFirstPlan, then at every kPlanGrowth
// times the previous plan's round, from costs accumulated since the start.
// A stationary run settles after the first plan; later plans only refine it.
constexpr std::uint64_t kSampleStride = 4;
constexpr std::uint64_t kFirstPlan = 64;
constexpr std::uint64_t kPlanGrowth = 8;

// Spin iterations between two clock reads while spinning.
constexpr std::uint32_t kSpinsPerClockRead = 64;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

std::uint64_t to_ns(std::chrono::steady_clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

}  // namespace

std::vector<std::size_t> plan_placement(const std::vector<double>& shard_cost,
                                        double coordinator_cost,
                                        std::size_t workers) {
  std::vector<std::size_t> order(shard_cost.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return shard_cost[a] > shard_cost[b];
  });
  std::vector<double> load(std::max<std::size_t>(workers, 1), 0.0);
  load[0] = coordinator_cost;
  std::vector<std::size_t> owner(shard_cost.size(), 0);
  for (const std::size_t s : order) {
    const auto least = std::min_element(load.begin(), load.end());
    owner[s] = static_cast<std::size_t>(least - load.begin());
    *least += shard_cost[s];
  }
  return owner;
}

WorkerTeam::WorkerTeam(std::size_t workers, std::size_t shards)
    : workers_(workers == 0 ? 1 : workers), shards_(shards) {
  if (workers_ > shards_ && shards_ != 0) workers_ = shards_;
  spin_ = workers_ > 1 && workers_ <= std::thread::hardware_concurrency();
  std::vector<std::size_t> striped(shards_);
  for (std::size_t s = 0; s < shards_; ++s) striped[s] = s % workers_;
  set_owners(striped);
  shard_ns_.assign(shards_, 0);
  errors_.resize(workers_);
  next_plan_ = kFirstPlan;
  threads_.reserve(workers_ - 1);
  try {
    for (std::size_t w = 1; w < workers_; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    shutdown();  // Join the workers that did start before giving up.
    throw;
  }
}

WorkerTeam::~WorkerTeam() {
  if (!threads_.empty()) shutdown();
}

void WorkerTeam::set_owners(const std::vector<std::size_t>& owner) {
  owner_ = owner;
  owned_.assign(workers_, {});
  for (std::size_t s = 0; s < shards_; ++s) owned_[owner_[s]].push_back(s);
}

void WorkerTeam::replan() {
  const double sampled = static_cast<double>(rounds_ / kSampleStride);
  std::vector<double> cost(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    cost[s] = static_cast<double>(shard_ns_[s]) / sampled;
  }
  const double serial =
      serial_samples_ == 0 ? 0.0
                           : static_cast<double>(serial_ns_) /
                                 static_cast<double>(serial_samples_);
  set_owners(plan_placement(cost, serial, workers_));
}

// Spin (when allowed) until ready() holds or the budget runs out, then park.
// The park handshake: the waiter announces itself in `parked` before its
// re-check under the mutex, and wake() reads `parked` after the publishing
// update. All four accesses are sequentially consistent, so either the
// re-check sees the update or wake() sees the announcement and notifies
// under the mutex, after the waiter is asleep.
template <class Ready>
void WorkerTeam::await(const Ready& ready, std::atomic<std::size_t>& parked,
                       std::condition_variable& cv) {
  if (ready()) return;
  if (spin_) {
    const Clock::time_point deadline = Clock::now() + kSpinBudget;
    for (std::uint32_t i = 1;; ++i) {
      cpu_relax();
      if (ready()) return;
      if (i % kSpinsPerClockRead == 0 && Clock::now() >= deadline) break;
    }
  }
  parked.fetch_add(1);
  {
    std::unique_lock<std::mutex> lock(park_mutex_);
    cv.wait(lock, ready);
  }
  parked.fetch_sub(1);
}

void WorkerTeam::wake(const std::atomic<std::size_t>& parked,
                      std::condition_variable& cv) {
  if (parked.load() == 0) return;
  { std::lock_guard<std::mutex> lock(park_mutex_); }
  cv.notify_all();
}

void WorkerTeam::pump(std::size_t w, const std::function<void(std::size_t)>& fn) {
  COAXIAL_PROF_SCOPE(kShardPump);
  if (!sample_) {
    for (const std::size_t s : owned_[w]) fn(s);
    return;
  }
  Clock::time_point start = Clock::now();
  for (const std::size_t s : owned_[w]) {
    fn(s);
    const Clock::time_point end = Clock::now();
    shard_ns_[s] += to_ns(end - start);
    start = end;
  }
}

void WorkerTeam::worker_loop(std::size_t w) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      COAXIAL_PROF_SCOPE(kShardBarrier);
      await([&] { return generation_.load() != seen; }, parked_workers_,
            start_cv_);
    }
    seen = generation_.load();
    if (stopping_.load()) {
      std::lock_guard<std::mutex> lock(park_mutex_);
      worker_totals_.add(obs::prof::thread_totals());
      return;
    }
    try {
      pump(w, *fn_);
    } catch (...) {
      errors_[w] = std::current_exception();
    }
    if (arrived_.fetch_add(1) + 1 == workers_ - 1) {
      wake(parked_coordinator_, done_cv_);
    }
  }
}

void WorkerTeam::round(const std::function<void(std::size_t)>& fn) {
  if (threads_.empty()) {
    COAXIAL_PROF_SCOPE(kShardPump);
    for (std::size_t s = 0; s < shards_; ++s) fn(s);
    return;
  }
  // The time since the last sampled round returned is the coordinator's
  // serial barrier work (mailbox drain, window and termination checks).
  if (sample_) {
    serial_ns_ += to_ns(Clock::now() - sampled_round_end_);
    ++serial_samples_;
  }
  if (rounds_ == next_plan_) {
    replan();
    next_plan_ *= kPlanGrowth;
  }
  sample_ = rounds_ % kSampleStride == 0;
  ++rounds_;

  fn_ = &fn;
  arrived_.store(0);
  generation_.fetch_add(1);
  wake(parked_workers_, start_cv_);
  try {
    pump(0, fn);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  {
    COAXIAL_PROF_SCOPE(kShardBarrier);
    await([&] { return arrived_.load() == workers_ - 1; }, parked_coordinator_,
          done_cv_);
  }
  for (std::exception_ptr& e : errors_) {
    if (!e) continue;
    const std::exception_ptr first = e;
    std::fill(errors_.begin(), errors_.end(), nullptr);
    std::rethrow_exception(first);
  }
  if (sample_) sampled_round_end_ = Clock::now();
}

obs::prof::Totals WorkerTeam::shutdown() {
  stopping_.store(true);
  generation_.fetch_add(1);
  wake(parked_workers_, start_cv_);
  for (auto& t : threads_) t.join();
  threads_.clear();
  return worker_totals_;
}

}  // namespace coaxial::sim::shard
