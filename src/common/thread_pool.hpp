// Minimal work-stealing-free thread pool used by the run harness to fan
// simulation runs out across host cores. Each simulation is fully
// self-contained (no shared mutable state), so a plain task queue suffices.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace coaxial {

/// How many intra-run shard workers each simulation may use when `outer`
/// simulations run concurrently (run_many's pool composing with the sharded
/// pump): outer x inner must not oversubscribe the machine. Always >= 1 so a
/// sharded run degrades to one worker pumping every shard inline rather than
/// failing. `hardware == 0` (unknown concurrency) conservatively yields 1.
inline std::size_t inner_shard_cap(std::size_t outer, std::size_t hardware) {
  if (outer == 0) outer = 1;
  if (hardware <= outer) return 1;
  return hardware / outer;
}

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads = std::thread::hardware_concurrency()) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++outstanding_;
      tasks_.push(std::move(task));
    }
    cv_.notify_one();
  }

  /// Blocks until every submitted task has finished. If any task threw, the
  /// first captured exception is rethrown here (subsequent ones are
  /// dropped); without this, an escaping exception would unwind the worker
  /// thread and terminate the whole process.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
    if (first_exception_) {
      std::exception_ptr e = std::exchange(first_exception_, nullptr);
      lock.unlock();
      std::rethrow_exception(e);
    }
  }

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (stopping_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error && !first_exception_) first_exception_ = error;
        if (--outstanding_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t outstanding_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_exception_;  ///< First task failure; see wait_idle.
};

}  // namespace coaxial
