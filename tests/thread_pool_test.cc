#include "engine/thread_pool.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fannr {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> seen(kCount);
  pool.ParallelFor(kCount, [&](size_t index, size_t worker) {
    EXPECT_LT(worker, 4u);
    seen[index].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroCountReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleWorkerProcessesAll) {
  ThreadPool pool(1);
  size_t sum = 0;  // single worker: no synchronization needed
  pool.ParallelFor(100, [&](size_t index, size_t worker) {
    EXPECT_EQ(worker, 0u);
    sum += index;
  });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPoolTest, ReusableAcrossLoops) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> count{0};
    pool.ParallelFor(round * 7 + 1, [&](size_t, size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), static_cast<size_t>(round * 7 + 1));
  }
}

TEST(ThreadPoolTest, MoreWorkersThanIndices) {
  ThreadPool pool(8);
  std::atomic<size_t> count{0};
  pool.ParallelFor(2, [&](size_t, size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 2u);
}

TEST(ThreadPoolTest, PerWorkerScratchIsUnshared) {
  // Each worker accumulates into its own slot; slots must add up with no
  // lost updates, proving worker ids never collide concurrently.
  ThreadPool pool(4);
  std::vector<size_t> per_worker(pool.num_workers(), 0);
  pool.ParallelFor(5000, [&](size_t, size_t worker) {
    ++per_worker[worker];
  });
  EXPECT_EQ(std::accumulate(per_worker.begin(), per_worker.end(), size_t{0}),
            5000u);
}

/// Names of this process's threads whose name starts with `prefix`,
/// keyed by thread id.
std::map<std::string, std::string> ThreadNames(const std::string& prefix) {
  std::map<std::string, std::string> names;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    std::getline(comm, name);
    if (name.rfind(prefix, 0) == 0) {
      names[task.path().filename().string()] = name;
    }
  }
  return names;
}

TEST(ThreadPoolTest, OneWorkerRunsEveryBodyOnTheCallingThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t count : {size_t{1}, size_t{7}}) {
    pool.ParallelFor(count, [&](size_t, size_t worker) {
      EXPECT_EQ(worker, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
  }
}

TEST(ThreadPoolTest, CallerIsWorkerZeroBesideNumThreadsMinusOneHelpers) {
  // Helpers are told apart by thread id: an earlier pool's joined
  // threads may linger in /proc for a moment, but never reappear.
  const std::map<std::string, std::string> before = ThreadNames("fannr-pool");
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  auto started = [&] {
    std::set<std::string> names;
    for (const auto& [tid, name] : ThreadNames("fannr-pool")) {
      if (before.count(tid) == 0) names.insert(name);
    }
    return names;
  };
  // Each helper names itself once it runs; give a surplus one time to.
  for (int spin = 0; spin < 1000 && started().size() < 3; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(started(), (std::set<std::string>{"fannr-pool1", "fannr-pool2",
                                              "fannr-pool3"}))
      << "a pool of 4 workers starts helpers 1..3 and no helper 0";

  // Worker 0 is the calling thread and no other; helpers never claim 0.
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::vector<std::thread::id> by_worker(pool.num_workers());
  pool.ParallelFor(400, [&](size_t, size_t worker) {
    const std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(worker == 0, self == caller) << "worker " << worker;
    if (by_worker[worker] == std::thread::id()) by_worker[worker] = self;
    EXPECT_EQ(by_worker[worker], self) << "worker id moved threads";
  });

  // A one-index loop stays on the caller.
  pool.ParallelFor(1, [&](size_t, size_t worker) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, BodyExceptionPropagatesToCaller) {
  // Pre-fix, an exception escaping the body crossed the worker thread's
  // noexcept boundary and called std::terminate. It must instead surface
  // on the calling thread.
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](size_t index, size_t) {
                         if (index == 37) throw std::runtime_error("boom 37");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, FirstExceptionWinsAndCarriesItsMessage) {
  ThreadPool pool(2);
  std::string message;
  try {
    pool.ParallelFor(50, [&](size_t index, size_t) {
      throw std::runtime_error("fail at " + std::to_string(index));
    });
    FAIL() << "ParallelFor should have thrown";
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message.rfind("fail at ", 0), 0u) << message;
}

TEST(ThreadPoolTest, ExceptionSkipsUnclaimedIndices) {
  // A throw drains the remaining work: indices claimed after the failure
  // are skipped, so a poisoned batch doesn't keep running to completion.
  ThreadPool pool(1);  // deterministic claim order: 0, 1, 2, ...
  std::atomic<size_t> executed{0};
  EXPECT_THROW(pool.ParallelFor(1000,
                                [&](size_t index, size_t) {
                                  if (index == 5) throw std::logic_error("x");
                                  executed.fetch_add(
                                      1, std::memory_order_relaxed);
                                }),
               std::logic_error);
  EXPECT_EQ(executed.load(), 5u);
}

TEST(ThreadPoolTest, PoolIsReusableAfterException) {
  // The pool must neither deadlock nor stay poisoned: the next
  // ParallelFor runs normally and a second failure is reported again.
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(
                   10, [](size_t, size_t) { throw std::runtime_error("a"); }),
               std::runtime_error);

  std::atomic<size_t> count{0};
  pool.ParallelFor(500, [&](size_t, size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 500u);

  EXPECT_THROW(pool.ParallelFor(
                   10, [](size_t, size_t) { throw std::runtime_error("b"); }),
               std::runtime_error);
  count.store(0);
  pool.ParallelFor(77, [&](size_t, size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 77u);
}

TEST(ThreadPoolTest, StatsCountCallsAndExecutedIndices) {
  ThreadPool pool(2);
  pool.ParallelFor(10, [](size_t, size_t) {});
  pool.ParallelFor(7, [](size_t, size_t) {});
  const auto stats = pool.stats();
  EXPECT_EQ(stats.parallel_for_calls, 2u);
  EXPECT_EQ(stats.indices_executed, 17u);
}

}  // namespace
}  // namespace fannr
