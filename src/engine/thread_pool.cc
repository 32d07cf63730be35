#include "engine/thread_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/thread_name.h"

namespace fannr {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  worker_slots_ = std::make_unique<WorkerSlot[]>(num_threads);
  helpers_.reserve(num_threads - 1);
  for (size_t i = 1; i < num_threads; ++i) {
    helpers_.emplace_back([this, i] { HelperMain(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void ThreadPool::ParallelFor(
    size_t count, const std::function<void(size_t, size_t)>& body) {
  if (count == 0) return;
  std::lock_guard<std::mutex> run_lock(run_mu_);
  stat_calls_.fetch_add(1, std::memory_order_relaxed);
  next_index_.store(0, std::memory_order_relaxed);
  // One index, or no helpers: the caller runs the whole loop and no
  // other thread is woken.
  const bool wake_helpers = count > 1 && !helpers_.empty();
  if (wake_helpers) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      body_ = &body;
      count_ = count;
      active_helpers_ = helpers_.size();
      ++generation_;
    }
    work_cv_.notify_all();
  }
  RunIndices(body, count, /*worker_id=*/0);
  std::exception_ptr exception;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return active_helpers_ == 0; });
    body_ = nullptr;
    exception = std::exchange(first_exception_, nullptr);
  }
  // Rethrow the first body exception on the calling thread, after the
  // barrier — the pool is already quiesced and reusable at this point.
  if (exception) std::rethrow_exception(exception);
}

ThreadPool::Stats ThreadPool::stats() const {
  uint64_t indices = 0;
  for (size_t i = 0; i < num_workers(); ++i) {
    indices +=
        worker_slots_[i].indices_executed.load(std::memory_order_relaxed);
  }
  return Stats{stat_calls_.load(std::memory_order_relaxed), indices};
}

void ThreadPool::RunIndices(const std::function<void(size_t, size_t)>& body,
                            size_t count, size_t worker_id) {
  while (true) {
    const size_t index = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (index >= count) return;
    try {
      body(index, worker_id);
      worker_slots_[worker_id].indices_executed.fetch_add(
          1, std::memory_order_relaxed);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_exception_) first_exception_ = std::current_exception();
      }
      // Stop handing out further indices so the loop drains quickly;
      // indices already claimed by other workers still run.
      next_index_.store(count, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::HelperMain(size_t worker_id) {
  SetThreadName("fannr-pool" + std::to_string(worker_id));
  uint64_t seen_generation = 0;
  while (true) {
    const std::function<void(size_t, size_t)>* body = nullptr;
    size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      body = body_;
      count = count_;
    }
    RunIndices(*body, count, worker_id);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_helpers_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace fannr
