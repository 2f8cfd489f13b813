#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/env.h"

namespace eca {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(1, threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(fn));
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

std::size_t ThreadPool::resolve_threads(int requested) {
  if (requested > 0) return static_cast<std::size_t>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<std::size_t>(env_int("ECA_THREADS", hw > 0 ? hw : 1, 1));
}

std::size_t ThreadPool::resolve_slot_threads(int requested) {
  if (requested > 0) return static_cast<std::size_t>(requested);
  return static_cast<std::size_t>(env_int("ECA_SLOT_THREADS", 1, 1));
}

namespace {

// Shared work-volume cap for the slot and LP policies: never dispatch a
// worker that would cover less than `min_work` units, never oversubscribe
// the hardware unless explicitly asked to.
std::size_t cap_by_work(std::size_t base, std::size_t work,
                        std::size_t min_work, bool cap_to_hardware) {
  if (base <= 1) return 1;
  if (cap_to_hardware) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) base = std::min(base, static_cast<std::size_t>(hw));
  }
  const std::size_t floor = std::max<std::size_t>(1, min_work);
  const std::size_t cap = std::max<std::size_t>(1, work / floor);
  return std::min(base, cap);
}

}  // namespace

std::size_t ThreadPool::resolve_slot_threads(int requested, std::size_t work,
                                             std::size_t min_work,
                                             bool cap_to_hardware) {
  return cap_by_work(resolve_slot_threads(requested), work, min_work,
                     cap_to_hardware);
}

std::size_t ThreadPool::resolve_lp_threads(int requested) {
  if (requested > 0) return static_cast<std::size_t>(requested);
  return static_cast<std::size_t>(env_int("ECA_LP_THREADS", 1, 1));
}

std::size_t ThreadPool::resolve_lp_threads(int requested, std::size_t work,
                                           std::size_t min_work,
                                           bool cap_to_hardware) {
  return cap_by_work(resolve_lp_threads(requested), work, min_work,
                     cap_to_hardware);
}

std::size_t ThreadPool::resolve_baseline_threads(int requested) {
  if (requested > 0) return static_cast<std::size_t>(requested);
  return static_cast<std::size_t>(env_int("ECA_BASELINE_THREADS", 1, 1));
}

std::size_t ThreadPool::resolve_baseline_threads(int requested,
                                                 std::size_t work,
                                                 std::size_t min_work,
                                                 bool cap_to_hardware) {
  return cap_by_work(resolve_baseline_threads(requested), work, min_work,
                     cap_to_hardware);
}

std::size_t ThreadPool::slot_min_chunk() {
  return static_cast<std::size_t>(
      env_int("ECA_SLOT_MIN_CHUNK", kDefaultSlotMinChunk, 1));
}

void ThreadPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1) {
    fn(0);
    return;
  }
  std::atomic<std::size_t> next{0};
  const std::size_t tasks = std::min(workers_.size(), count);
  for (std::size_t w = 0; w < tasks; ++w) {
    submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        fn(i);
      }
    });
  }
  wait_idle();
}

void ThreadPool::parallel_for(std::size_t count, std::size_t threads,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (threads <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool pool(std::min(threads, count));
  std::atomic<std::size_t> next{0};
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        fn(i);
      }
    });
  }
  pool.wait_idle();
}

}  // namespace eca
