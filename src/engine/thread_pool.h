// A fixed-size worker pool for batch query execution.
//
// Helper threads are started once and kept parked on a condition
// variable, so a long-lived BatchQueryEngine pays the thread-spawn cost
// once, not per batch. The pool's unit of work is an index range
// processed by ParallelFor: workers pull indices from a shared atomic
// counter (dynamic load balancing — queries have wildly different
// costs), and every callback receives its worker id so callers can
// maintain per-worker scratch (search objects, g_phi engines) without
// locking.
//
// The thread that calls ParallelFor is worker 0: a pool of N workers
// starts N - 1 helper threads (ids 1..N-1), and wakes them only for a
// loop of more than one index. A one-worker pool, or a one-index loop,
// therefore never leaves the calling thread.

#ifndef FANNR_ENGINE_THREAD_POOL_H_
#define FANNR_ENGINE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fannr {

/// Fixed pool of workers executing indexed parallel loops; the calling
/// thread is worker 0.
class ThreadPool {
 public:
  /// A pool of `num_threads` workers (minimum 1; 0 means
  /// hardware_concurrency): the calling thread of each ParallelFor is
  /// worker 0, and num_threads - 1 helper threads are started here.
  /// Worker ids are stable in [0, num_workers()).
  explicit ThreadPool(size_t num_threads);

  /// Joins all helpers. Must not be called while a ParallelFor is
  /// running on another thread.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers, the calling thread included (helper threads + 1).
  size_t num_workers() const { return helpers_.size() + 1; }

  /// Cumulative pool activity since construction. Exact once no
  /// ParallelFor is in flight (counters are relaxed atomics).
  struct Stats {
    uint64_t parallel_for_calls = 0;
    uint64_t indices_executed = 0;
  };
  Stats stats() const;

  /// Runs body(index, worker) for every index in [0, count), distributing
  /// indices dynamically over the workers, and blocks until all calls
  /// have returned. `worker` is the executing worker's id in
  /// [0, num_workers()); worker 0 is the calling thread, which runs
  /// bodies alongside the helpers (and alone when count == 1). Only one
  /// ParallelFor may run at a time (calls from multiple threads
  /// serialize on an internal mutex). The body must not re-enter
  /// ParallelFor on the same pool.
  ///
  /// A throwing body is contained, not fatal: the first exception is
  /// captured, the loop stops handing out further indices (bodies
  /// already claimed by other workers still complete), and the exception
  /// is rethrown here — on the calling thread — after every worker has
  /// left the loop. The pool stays fully usable afterwards. When a body
  /// throws, indices not yet claimed are skipped; callers that need
  /// all-or-nothing semantics must treat the loop's outputs as invalid
  /// on throw.
  void ParallelFor(size_t count,
                   const std::function<void(size_t index, size_t worker)>& body);

 private:
  void HelperMain(size_t worker_id);
  /// Claims and runs indices of the current loop as `worker_id` until
  /// none are left.
  void RunIndices(const std::function<void(size_t, size_t)>& body,
                  size_t count, size_t worker_id);

  std::vector<std::thread> helpers_;  // workers 1..num_workers()-1

  std::mutex run_mu_;  // serializes ParallelFor calls

  // State of the current loop, guarded by mu_.
  std::mutex mu_;
  std::condition_variable work_cv_;  // helpers wait here for a new loop
  std::condition_variable done_cv_;  // ParallelFor waits here for helpers
  const std::function<void(size_t, size_t)>* body_ = nullptr;
  size_t count_ = 0;
  uint64_t generation_ = 0;     // bumped per loop so helpers see new work
  size_t active_helpers_ = 0;   // helpers still inside the current loop
  std::exception_ptr first_exception_;  // first throw of the current loop
  bool shutdown_ = false;

  // The index counter every worker hammers lives on its own cache line;
  // each worker's stat counter lives on its own line too. Without the
  // alignment the relaxed increments false-share one line and the
  // "dynamic load balancing" counter becomes a cross-core bottleneck.
  alignas(64) std::atomic<size_t> next_index_{0};

  struct alignas(64) WorkerSlot {
    std::atomic<uint64_t> indices_executed{0};
  };
  std::unique_ptr<WorkerSlot[]> worker_slots_;  // one per worker

  alignas(64) std::atomic<uint64_t> stat_calls_{0};
};

}  // namespace fannr

#endif  // FANNR_ENGINE_THREAD_POOL_H_
