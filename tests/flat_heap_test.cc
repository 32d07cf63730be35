// FlatHeap (common/flat_heap.h): pop order vs a std::priority_queue
// reference on seeded random push/pop interleavings, the lazy-delete +
// settled-check idiom the search kernels rely on, and the allocation
// contract (clear() keeps capacity; warm reuse performs zero growths).

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_heap.h"
#include "common/rng.h"
#include "engine/batch_engine.h"
#include "fann_world.h"
#include "test_util.h"

namespace fannr {
namespace {

using Entry = std::pair<double, uint32_t>;

// With a strict total order (lexicographic pair compare) the pop
// sequence is fully determined by the multiset of live entries, so the
// flat heap and std::priority_queue must agree element-for-element on
// any interleaving of pushes and pops.
TEST(FlatHeapTest, MatchesPriorityQueueOnRandomInterleavings) {
  for (uint64_t seed : {1u, 7u, 0xF1A7u}) {
    Rng rng(seed);
    FlatHeap<Entry> heap;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ref;
    for (int step = 0; step < 5000; ++step) {
      const bool push = ref.empty() || rng.NextBounded(3) != 0;
      if (push) {
        // Small key range on purpose: plenty of exact duplicates, which
        // the total order must still sequence identically.
        const Entry e{static_cast<double>(rng.NextBounded(64)),
                      static_cast<uint32_t>(rng.NextBounded(16))};
        heap.push(e);
        ref.push(e);
      } else {
        ASSERT_FALSE(heap.empty());
        ASSERT_EQ(heap.top(), ref.top()) << "seed " << seed << " step " << step;
        heap.pop();
        ref.pop();
      }
    }
    while (!ref.empty()) {
      ASSERT_FALSE(heap.empty());
      ASSERT_EQ(heap.top(), ref.top()) << "seed " << seed << " drain";
      heap.pop();
      ref.pop();
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(FlatHeapTest, PopOrderNondecreasingUnderPartialOrderComparator) {
  // Key-only comparator (the A*/INE shape): tie order is unspecified,
  // but pops must still be nondecreasing in the key and return every
  // entry exactly once.
  struct KeyLess {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.first < b.first;
    }
  };
  Rng rng(0xD00Du);
  FlatHeap<Entry, KeyLess> heap;
  std::vector<int> pushed_per_key(8, 0);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBounded(8));
    ++pushed_per_key[key];
    heap.push({static_cast<double>(key), static_cast<uint32_t>(rng.NextU64())});
  }
  double last = -1.0;
  std::vector<int> popped_per_key(8, 0);
  while (!heap.empty()) {
    const Entry e = heap.top();
    heap.pop();
    ASSERT_GE(e.first, last);
    last = e.first;
    ++popped_per_key[static_cast<size_t>(e.first)];
  }
  EXPECT_EQ(popped_per_key, pushed_per_key);
}

TEST(FlatHeapTest, LazyDeleteSettledCheckYieldsEachVertexOnceAtBestKey) {
  // The decrease-key-free idiom from the header comment: push improved
  // duplicates, skip pops whose key is worse than the recorded best.
  // Every vertex must settle exactly once, at its minimum pushed key.
  constexpr size_t kVertices = 50;
  Rng rng(0xBEEFu);
  FlatHeap<Entry> heap;
  std::vector<double> best(kVertices, 1e300);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(kVertices));
    const double key = static_cast<double>(rng.NextBounded(1000));
    if (key < best[v]) {
      best[v] = key;
      heap.push({key, v});
    }
  }
  std::vector<int> settled(kVertices, 0);
  while (!heap.empty()) {
    const auto [key, v] = heap.top();
    heap.pop();
    if (key > best[v]) continue;  // stale duplicate
    ++settled[v];
    EXPECT_EQ(key, best[v]);
  }
  for (size_t v = 0; v < kVertices; ++v) {
    EXPECT_EQ(settled[v], best[v] < 1e300 ? 1 : 0) << "vertex " << v;
  }
}

TEST(FlatHeapTest, ClearKeepsCapacityAndWarmReuseNeverGrows) {
  FlatHeap<Entry> heap;
  Rng rng(42u);
  auto fill_and_drain = [&] {
    for (int i = 0; i < 512; ++i) {
      heap.push({static_cast<double>(rng.NextBounded(97)), 0});
    }
    double last = -1.0;
    while (!heap.empty()) {
      EXPECT_GE(heap.top().first, last);
      last = heap.top().first;
      heap.pop();
    }
  };
  fill_and_drain();  // warmup: capacity grows here
  const size_t warm_capacity = heap.capacity();
  ASSERT_GE(warm_capacity, 512u);
  const uint64_t grows_before = FlatHeapAllocStats().grows;
  for (int round = 0; round < 10; ++round) {
    heap.clear();
    EXPECT_EQ(heap.capacity(), warm_capacity);
    fill_and_drain();
  }
  EXPECT_EQ(FlatHeapAllocStats().grows, grows_before)
      << "warm rounds must be allocation-free";
}

TEST(FlatHeapTest, ReserveGrowsOnceAndCountsOnce) {
  FlatHeap<Entry> heap;
  const uint64_t before = FlatHeapAllocStats().grows;
  heap.reserve(1024);
  EXPECT_GE(heap.capacity(), 1024u);
  EXPECT_EQ(FlatHeapAllocStats().grows, before + 1);
  heap.reserve(100);  // no-op: already large enough
  EXPECT_EQ(FlatHeapAllocStats().grows, before + 1);
  for (int i = 0; i < 1024; ++i) {
    heap.push({static_cast<double>(i), 0});
  }
  EXPECT_EQ(FlatHeapAllocStats().grows, before + 1)
      << "pushes within reserved capacity must not grow";
}

// --- Solve-phase allocation determinism ----------------------------------
// BatchQueryEngine grows every worker's Dijkstra frontier to its worst
// case — NumArcs() + 1 entries, the lazy-deletion push bound — at
// construction. The solve phase therefore performs EXACTLY ZERO heap
// growths under every thread count and cache setting, which makes the heap_grows counter a
// deterministic per-configuration quantity instead of a race-dependent
// one. bench/throughput.cc splits the counter by phase and
// scripts/check_throughput_json.py asserts the solve half stays 0; this
// test pins the same invariant at unit scope.
TEST(FlatHeapTest, BatchSolvePhasePerformsZeroGrowsForEveryConfig) {
  const auto& world = testing::FannWorld::Get();
  const Graph& graph = world.graph();

  Rng rng(0x9E47u);
  const IndexedVertexSet p(graph.NumVertices(),
                           testing::SampleVertices(graph, 24, rng));
  const IndexedVertexSet q(graph.NumVertices(),
                           testing::SampleVertices(graph, 8, rng));
  std::vector<FannrQuery> jobs;
  for (int i = 0; i < 16; ++i) {
    FannrQuery job;
    job.query = FannQuery{&graph, &p, &q, 0.5, Aggregate::kSum};
    job.algorithm = FannAlgorithm::kGd;
    jobs.push_back(job);
  }

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (const bool cached : {false, true}) {
      BatchOptions options;
      options.num_threads = threads;
      options.share_distance_cache = cached;
      BatchQueryEngine engine(world.Resources(), options);
      const uint64_t before = FlatHeapAllocStats().grows;
      engine.Run(jobs);
      EXPECT_EQ(FlatHeapAllocStats().grows, before)
          << "threads=" << threads << " cached=" << cached;
    }
  }
}

TEST(FlatHeapTest, SingleElementAndSelfMoveSafety) {
  FlatHeap<Entry> heap;
  heap.push({1.0, 7});
  EXPECT_EQ(heap.top(), (Entry{1.0, 7}));
  heap.pop();  // pop of the last element moves back onto itself — UB trap
  EXPECT_TRUE(heap.empty());
  heap.push({2.0, 1});
  heap.push({1.0, 2});
  EXPECT_EQ(heap.top(), (Entry{1.0, 2}));
  heap.pop();
  EXPECT_EQ(heap.top(), (Entry{2.0, 1}));
  heap.pop();
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace fannr
