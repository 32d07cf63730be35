#include "engine/distance_cache.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dynamic/update.h"
#include "engine/cached_sssp.h"
#include "engine/thread_pool.h"
#include "sp/dijkstra.h"
#include "test_util.h"

namespace fannr {
namespace {

std::vector<Weight> Vec(Weight v) { return std::vector<Weight>{v, v + 1}; }

TEST(SourceDistanceCacheTest, MissThenHit) {
  SourceDistanceCache cache(/*capacity=*/8, /*num_shards=*/2);
  EXPECT_EQ(cache.Lookup(3, /*epoch=*/0), nullptr);
  auto inserted = cache.Insert(3, /*epoch=*/0, Vec(30));
  ASSERT_NE(inserted, nullptr);
  auto hit = cache.Lookup(3, /*epoch=*/0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 30.0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.epoch_evictions, 0u);
}

TEST(SourceDistanceCacheTest, FirstWriterWinsWithinEpoch) {
  SourceDistanceCache cache(4, 1);
  auto first = cache.Insert(7, 0, Vec(1));
  auto second = cache.Insert(7, 0, Vec(2));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ((*second)[0], 1.0);
}

TEST(SourceDistanceCacheTest, EvictsLeastRecentlyUsed) {
  // Single shard of capacity 2: inserting a third source evicts the LRU.
  SourceDistanceCache cache(2, 1);
  cache.Insert(0, 0, Vec(0));
  cache.Insert(1, 0, Vec(10));
  ASSERT_NE(cache.Lookup(0, 0), nullptr);  // refresh 0; LRU is now 1
  cache.Insert(2, 0, Vec(20));
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(0, 0), nullptr);
  EXPECT_NE(cache.Lookup(2, 0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SourceDistanceCacheTest, CapacityBoundsResidentEntries) {
  SourceDistanceCache cache(10, 4);
  for (VertexId v = 0; v < 100; ++v) cache.Insert(v, 0, Vec(v));
  size_t resident = 0;
  for (VertexId v = 0; v < 100; ++v) {
    if (cache.Lookup(v, 0) != nullptr) ++resident;
  }
  EXPECT_LE(resident, 10u);
  EXPECT_GT(resident, 0u);
}

TEST(SourceDistanceCacheTest, ShardCountClampedToCapacity) {
  SourceDistanceCache cache(3, 64);
  EXPECT_EQ(cache.num_shards(), 3u);
  EXPECT_EQ(cache.capacity(), 3u);
}

TEST(SourceDistanceCacheTest, ClearDropsEntries) {
  SourceDistanceCache cache(8, 2);
  cache.Insert(1, 0, Vec(1));
  cache.Clear();
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
}

TEST(SourceDistanceCacheTest, EntriesSurviveEvictionWhileHeld) {
  SourceDistanceCache cache(1, 1);
  auto held = cache.Insert(0, 0, Vec(5));
  cache.Insert(1, 0, Vec(6));  // evicts source 0
  EXPECT_EQ(cache.Lookup(0, 0), nullptr);
  EXPECT_EQ((*held)[0], 5.0);  // the shared_ptr keeps the vector alive
}

TEST(SourceDistanceCacheTest, StaleEpochLookupMissesAndReclaims) {
  SourceDistanceCache cache(8, 2);
  cache.Insert(3, /*epoch=*/1, Vec(30));
  // A lookup at a newer epoch must never see the old vector; the stale
  // entry is reclaimed on the spot.
  SourceDistanceCache::Probe probe = SourceDistanceCache::Probe::kHit;
  EXPECT_EQ(cache.Lookup(3, /*epoch=*/2, {}, &probe), nullptr);
  EXPECT_EQ(probe, SourceDistanceCache::Probe::kStale);
  EXPECT_EQ(cache.stats().epoch_evictions, 1u);
  EXPECT_EQ(cache.size(), 0u);
  // A repeat lookup is a plain miss, not another epoch eviction.
  EXPECT_EQ(cache.Lookup(3, 2, {}, &probe), nullptr);
  EXPECT_EQ(probe, SourceDistanceCache::Probe::kAbsent);
  EXPECT_EQ(cache.stats().epoch_evictions, 1u);
}

TEST(SourceDistanceCacheTest, OlderEpochLookupAlsoMisses) {
  // Epoch mismatch in either direction is a reject: an engine holding a
  // stale graph snapshot must not be served a newer vector.
  SourceDistanceCache cache(8, 2);
  cache.Insert(5, /*epoch=*/4, Vec(50));
  EXPECT_EQ(cache.Lookup(5, /*epoch=*/3), nullptr);
  EXPECT_EQ(cache.stats().epoch_evictions, 1u);
}

TEST(SourceDistanceCacheTest, NewerEpochInsertReplacesStaleEntry) {
  SourceDistanceCache cache(8, 1);
  auto old_entry = cache.Insert(9, /*epoch=*/1, Vec(10));
  auto new_entry = cache.Insert(9, /*epoch=*/2, Vec(20));
  EXPECT_NE(old_entry.get(), new_entry.get());
  EXPECT_EQ((*new_entry)[0], 20.0);
  auto hit = cache.Lookup(9, 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 20.0);
  EXPECT_EQ(cache.stats().epoch_evictions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SourceDistanceCacheTest, ConcurrentMixedAccess) {
  // Hammer a small cache from several threads; exercised further under
  // TSan in CI. Correctness here: no crash, and every lookup that
  // returns an entry returns the right distances.
  SourceDistanceCache cache(16, 4);
  ThreadPool pool(4);
  pool.ParallelFor(4000, [&](size_t index, size_t) {
    const VertexId source = static_cast<VertexId>(index % 32);
    auto entry = cache.Lookup(source, 0);
    if (entry == nullptr) {
      entry = cache.Insert(source, 0, Vec(source));
    }
    ASSERT_EQ((*entry)[0], static_cast<Weight>(source));
  });
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4000u);
}

// ---- Radius-stamped rows ----------------------------------------------

using Probe = SourceDistanceCache::Probe;

TEST(SourceDistanceCacheTest, NarrowRowMissesAndIsReplacedByAWiderRow) {
  SourceDistanceCache cache(8, 1);
  // A row of radius 1.5: vertices 0 and 1 are within it, 2 and 3 not.
  cache.Insert(3, 0, {0.0, 1.0, 2.0, kInfWeight}, /*radius=*/1.5);
  const std::vector<VertexId> near = {0, 1};
  const std::vector<VertexId> far = {1, 2};
  Probe probe = Probe::kAbsent;
  EXPECT_NE(cache.Lookup(3, 0, near, &probe), nullptr);
  EXPECT_EQ(probe, Probe::kHit);
  EXPECT_EQ(cache.Lookup(3, 0, far, &probe), nullptr);
  EXPECT_EQ(probe, Probe::kNarrow);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);  // the narrow hit counts as a miss
  EXPECT_EQ(stats.narrow_misses, 1u);
  EXPECT_EQ(stats.bounded_rows, 1u);

  // The full row replaces it and serves both sets.
  auto full = cache.Insert(3, 0, {0.0, 1.0, 2.0, 3.0});
  EXPECT_EQ((*full)[3], 3.0);
  auto hit = cache.Lookup(3, 0, far, &probe);
  EXPECT_EQ(probe, Probe::kHit);
  EXPECT_EQ(hit, full);
  EXPECT_EQ(cache.Lookup(3, 0, near), full);
  stats = cache.stats();
  EXPECT_EQ(stats.bounded_rows, 1u);
  EXPECT_EQ(stats.epoch_evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SourceDistanceCacheTest, AbsentProbeTellsWhetherAnInsertEvicts) {
  SourceDistanceCache cache(/*capacity=*/1, /*num_shards=*/1);
  Probe probe = Probe::kHit;
  EXPECT_EQ(cache.Lookup(0, 0, {}, &probe), nullptr);
  EXPECT_EQ(probe, Probe::kAbsent);
  cache.Insert(1, 0, {0.0, 1.0});
  EXPECT_EQ(cache.Lookup(0, 0, {}, &probe), nullptr);
  EXPECT_EQ(probe, Probe::kAbsentFull);
}

TEST(SourceDistanceCacheTest, EqualOrNarrowerInsertLoses) {
  SourceDistanceCache cache(8, 1);
  auto first = cache.Insert(5, 0, {0.0, 2.0, 9.0}, 2.0);
  EXPECT_EQ(cache.Insert(5, 0, {0.0, 2.0, 7.0}, 2.0), first);  // equal
  EXPECT_EQ(cache.Insert(5, 0, {0.0, 8.0, 8.0}, 1.0), first);  // narrower
  EXPECT_EQ((*first)[2], 9.0);
  auto wider = cache.Insert(5, 0, {0.0, 2.0, 3.0}, 3.0);
  EXPECT_NE(wider, first);
  EXPECT_EQ(cache.Lookup(5, 0), wider);
  // A full row is wider than any bounded one, and loses to another.
  auto full = cache.Insert(5, 0, {0.0, 2.0, 3.0});
  EXPECT_NE(full, wider);
  EXPECT_EQ(cache.Insert(5, 0, {0.0, 2.0, 3.0}), full);
  EXPECT_EQ(cache.stats().bounded_rows, 4u);  // every finite-radius insert
}

TEST(SourceDistanceCacheTest, DroppedRowsAreRecycledUpToTheCap) {
  SourceDistanceCache cache(/*capacity=*/1, /*num_shards=*/1,
                            /*spare_rows=*/2);
  EXPECT_TRUE(cache.TakeSpareRow().empty());
  auto row0 = cache.Insert(0, 0, std::vector<Weight>(64, 0.0));
  const Weight* storage0 = row0->data();
  row0.reset();
  cache.Insert(1, 0, std::vector<Weight>(64, 1.0));  // evicts 0
  EXPECT_EQ(cache.spare_rows(), 1u);
  cache.Lookup(1, 1);  // stale reclaim of 1
  EXPECT_EQ(cache.spare_rows(), 2u);
  cache.Insert(2, 0, std::vector<Weight>(64, 2.0), /*radius=*/1.0);
  cache.Insert(2, 0, std::vector<Weight>(64, 2.0));  // narrow replaced
  EXPECT_EQ(cache.spare_rows(), 2u);  // capped
  std::vector<Weight> spare = cache.TakeSpareRow();
  std::vector<Weight> other = cache.TakeSpareRow();
  EXPECT_TRUE(spare.data() == storage0 || other.data() == storage0);
  EXPECT_GE(spare.capacity(), 64u);
  EXPECT_EQ(cache.spare_rows(), 0u);
  // A losing insert hands its own buffer to the pool.
  cache.Insert(2, 0, std::vector<Weight>(64, 2.0));
  EXPECT_EQ(cache.spare_rows(), 1u);
}

TEST(SourceDistanceCacheTest, RecycledBufferIsNeverReusedWhileHeld) {
  SourceDistanceCache cache(1, 1, /*spare_rows=*/4);
  auto held = cache.Insert(0, 0, std::vector<Weight>(64, 5.0));
  cache.Insert(1, 0, std::vector<Weight>(64, 6.0));  // evicts 0
  cache.Lookup(1, 1);                                 // reclaims 1
  EXPECT_EQ(cache.spare_rows(), 1u);  // row 1's buffer only
  std::vector<Weight> spare = cache.TakeSpareRow();
  EXPECT_NE(spare.data(), held->data());
  spare.assign(64, -1.0);
  for (Weight w : *held) ASSERT_EQ(w, 5.0);
  const Weight* storage = held->data();
  held.reset();  // the reader lets go: now the buffer may be reused
  EXPECT_EQ(cache.spare_rows(), 1u);
  EXPECT_EQ(cache.TakeSpareRow().data(), storage);
}

TEST(SourceDistanceCacheTest, ConcurrentRecyclingNeverTouchesAHeldRow) {
  // Every row is filled with its source id; a reader re-checks its row
  // after other threads have evicted, recycled and refilled buffers.
  // Run under ASan/TSan in CI.
  SourceDistanceCache cache(4, 2, /*spare_rows=*/4);
  ThreadPool pool(4);
  pool.ParallelFor(4000, [&](size_t index, size_t) {
    const VertexId source = static_cast<VertexId>((index * 7) % 24);
    auto row = cache.Lookup(source, 0);
    if (row == nullptr) {
      std::vector<Weight> fresh = cache.TakeSpareRow();
      fresh.assign(256, static_cast<Weight>(source));
      row = cache.Insert(source, 0, std::move(fresh));
    }
    std::vector<Weight> churn = cache.TakeSpareRow();
    churn.assign(256, -1.0);
    cache.Insert(static_cast<VertexId>(24 + index % 8), 0, std::move(churn));
    for (Weight w : *row) ASSERT_EQ(w, static_cast<Weight>(source));
  });
  EXPECT_LE(cache.spare_rows(), 4u);
}

// ---- CachedSsspEngine: the cache as its own doorkeeper -----------------

bool SameBits(Weight a, Weight b) {
  return std::memcmp(&a, &b, sizeof(Weight)) == 0;
}

TEST(CachedSsspEngineTest, BoundedOnlyWhenFullNarrowAndStaleMissesFull) {
  Graph g = testing::MakeRandomNetwork(400, 11);
  // One entry, so the second source a query touches finds the cache full.
  auto cache = std::make_shared<SourceDistanceCache>(1, 1, 1);
  CachedSsspEngine engine(g, cache);
  const VertexId p = 17;
  const VertexId other = 3;
  const std::vector<Weight> want = DijkstraSssp(g, p);
  // Q near p, and Q holding the vertex farthest from p.
  VertexId nearest = p == 0 ? 1 : 0;
  VertexId farthest = p;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (v != p && want[v] < want[nearest]) nearest = v;
    if (want[v] > want[farthest]) farthest = v;
  }
  IndexedVertexSet q_near(g.NumVertices(), {nearest});
  IndexedVertexSet q_far(g.NumVertices(), {nearest, farthest});
  std::vector<VertexId> all(g.NumVertices());
  for (VertexId v = 0; v < all.size(); ++v) all[v] = v;

  // While the cache has room a miss builds the full row.
  engine.Prepare(q_near);
  engine.Evaluate(other, 1, Aggregate::kMax);
  EXPECT_EQ(cache->stats().bounded_rows, 0u);
  EXPECT_NE(cache->Lookup(other, g.epoch(), all), nullptr);

  // Full: a source the cache does not hold gets the bounded row.
  EXPECT_TRUE(SameBits(engine.Evaluate(p, 1, Aggregate::kMax).distance,
                       want[nearest]));
  EXPECT_EQ(cache->stats().bounded_rows, 1u);
  EXPECT_EQ(cache->stats().evictions, 1u);
  engine.Evaluate(p, 1, Aggregate::kMax);
  EXPECT_EQ(engine.probe_counters().hits, 1u);

  // A narrow miss builds the full row, which replaces the bounded one.
  engine.Prepare(q_far);
  EXPECT_TRUE(SameBits(engine.Evaluate(p, 2, Aggregate::kMax).distance,
                       want[farthest]));
  auto stats = cache->stats();
  EXPECT_EQ(stats.narrow_misses, 1u);
  EXPECT_EQ(stats.bounded_rows, 1u);
  EXPECT_EQ(engine.probe_counters().misses, 3u);
  auto row = cache->Lookup(p, g.epoch(), all);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(std::memcmp(row->data(), want.data(), want.size() * sizeof(Weight)),
            0);
  row.reset();

  // After a weight update the stale row is reclaimed and the source,
  // which has been read before, gets the full row straight away.
  dynamic::UpdateBatch batch;
  batch.ScaleWeight(g, p, g.Neighbors(p)[0].to, 3.0);
  batch.Apply(g);
  const std::vector<Weight> want_after = DijkstraSssp(g, p);
  engine.Prepare(q_near);
  EXPECT_TRUE(SameBits(engine.Evaluate(p, 1, Aggregate::kMax).distance,
                       want_after[nearest]));
  stats = cache->stats();
  EXPECT_EQ(stats.epoch_evictions, 1u);
  EXPECT_EQ(stats.bounded_rows, 1u);
  row = cache->Lookup(p, g.epoch(), all);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(std::memcmp(row->data(), want_after.data(),
                        want_after.size() * sizeof(Weight)),
            0);
  EXPECT_EQ(stats.misses, 4u);  // other, first p, narrow and stale
  EXPECT_EQ(stats.misses, engine.probe_counters().misses);
}

TEST(CachedSsspEngineTest, WithoutACacheEveryRowIsBoundedAndExact) {
  const Graph g = testing::MakeRandomNetwork(400, 12);
  CachedSsspEngine engine(g, nullptr);
  Rng rng(4);
  const auto q_members = testing::SampleVertices(g, 6, rng);
  IndexedVertexSet q(g.NumVertices(), q_members);
  engine.Prepare(q);
  for (VertexId p : testing::SampleVertices(g, 30, rng)) {
    const std::vector<Weight> want = DijkstraSssp(g, p);
    Weight farthest = 0.0;
    for (VertexId v : q_members) farthest = std::max(farthest, want[v]);
    EXPECT_TRUE(SameBits(
        engine.Evaluate(p, q_members.size(), Aggregate::kMax).distance,
        farthest))
        << "p = " << p;
  }
}

// ---- CachedSsspEngine: best-bounded miss rows ----------------------------

TEST(CachedSsspEngineTest, PrunedRowIsInsertedWithItsRadiusThenWidened) {
  const Graph g = testing::MakeRandomNetwork(400, 11);
  auto cache = std::make_shared<SourceDistanceCache>(1, 1, 1);
  CachedSsspEngine engine(g, cache);
  const VertexId p = 17;
  const VertexId other = 3;
  const std::vector<Weight> want = DijkstraSssp(g, p);
  // Q: the vertex farthest from p and the four nearest to it, so a row
  // that serves Q is the whole component.
  std::vector<VertexId> by_distance(g.NumVertices());
  for (VertexId v = 0; v < by_distance.size(); ++v) by_distance[v] = v;
  std::sort(by_distance.begin(), by_distance.end(),
            [&](VertexId a, VertexId b) { return want[a] < want[b]; });
  std::vector<VertexId> q_members(by_distance.begin() + 1,
                                  by_distance.begin() + 5);
  q_members.push_back(by_distance.back());
  IndexedVertexSet q(g.NumVertices(), q_members);
  engine.Prepare(q);
  const GphiResult exact = engine.Evaluate(p, 3, Aggregate::kSum);
  ASSERT_EQ(exact.subset.size(), 3u);
  cache->Clear();

  engine.Evaluate(other, 3, Aggregate::kSum);  // room: the full row
  // Full: p's row stops once p cannot beat a bound far below g_phi(p).
  const GphiResult pruned =
      engine.EvaluateBounded(p, 3, Aggregate::kSum, exact.distance / 8.0);
  EXPECT_EQ(pruned.distance, kInfWeight);
  EXPECT_TRUE(pruned.subset.empty());
  auto stats = cache->stats();
  EXPECT_EQ(stats.bounded_rows, 1u);
  EXPECT_EQ(stats.pruned_rows, 1u);

  // Resident with its radius: it serves p's nearest vertex, and Q only
  // as a narrow miss.
  SourceDistanceCache::Probe probe = SourceDistanceCache::Probe::kHit;
  auto row = cache->Lookup(p, g.epoch(), std::vector<VertexId>{p}, &probe);
  ASSERT_NE(row, nullptr);
  // Exact near p, tentative (never below the truth) farther out.
  for (VertexId v = 0; v < want.size(); ++v) {
    EXPECT_TRUE(SameBits((*row)[v], want[v]) || (*row)[v] > want[v]);
  }
  row.reset();
  EXPECT_EQ(cache->Lookup(p, g.epoch(), q_members, &probe), nullptr);
  EXPECT_EQ(probe, SourceDistanceCache::Probe::kNarrow);

  // The same Q again: a narrow miss builds the full row, bitwise exact.
  const GphiResult again = engine.Evaluate(p, 3, Aggregate::kSum);
  EXPECT_TRUE(SameBits(again.distance, exact.distance));
  EXPECT_EQ(again.subset, exact.subset);
  stats = cache->stats();
  EXPECT_EQ(stats.narrow_misses, 2u);
  EXPECT_EQ(stats.pruned_rows, 1u);
  row = cache->Lookup(p, g.epoch(), q_members);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(std::memcmp(row->data(), want.data(), want.size() * sizeof(Weight)),
            0);
}

TEST(CachedSsspEngineTest, RoomPathIgnoresTheBound) {
  const Graph g = testing::MakeRandomNetwork(400, 12);
  auto cache = std::make_shared<SourceDistanceCache>(64, 4, 1);
  CachedSsspEngine engine(g, cache);
  Rng rng(6);
  const auto q_members = testing::SampleVertices(g, 6, rng);
  IndexedVertexSet q(g.NumVertices(), q_members);
  engine.Prepare(q);
  for (VertexId p : testing::SampleVertices(g, 20, rng)) {
    // A bound of 0 prunes every p with g_phi > 0 on a bounded path.
    const GphiResult r = engine.EvaluateBounded(p, 3, Aggregate::kSum, 0.0);
    EXPECT_TRUE(SameBits(r.distance,
                         testing::BruteGphi(g, p, q_members, 3,
                                            Aggregate::kSum)))
        << "p = " << p;
    auto row = cache->Lookup(p, g.epoch());
    ASSERT_NE(row, nullptr);
    const std::vector<Weight> want = DijkstraSssp(g, p);
    EXPECT_EQ(
        std::memcmp(row->data(), want.data(), want.size() * sizeof(Weight)),
        0);
  }
  EXPECT_EQ(cache->stats().bounded_rows, 0u);
  EXPECT_EQ(cache->stats().pruned_rows, 0u);
}

TEST(CachedSsspEngineTest, WithoutACacheRowsStopOnTheBound) {
  const Graph g = testing::MakeRandomNetwork(400, 12);
  CachedSsspEngine engine(g, nullptr);
  Rng rng(8);
  const auto q_members = testing::SampleVertices(g, 8, rng);
  const std::vector<double> weights = {1.0, 2.0, 0.5, 1.5,
                                       3.0, 1.0, 0.25, 2.5};
  IndexedVertexSet q(g.NumVertices(), q_members);
  size_t pruned = 0;
  for (bool weighted : {false, true}) {
    for (Aggregate aggregate : {Aggregate::kMax, Aggregate::kSum}) {
      for (VertexId p : testing::SampleVertices(g, 30, rng)) {
        engine.Prepare(q);
        if (weighted) {
          ASSERT_TRUE(engine.BindWeights(weights));
        }
        const GphiResult exact = engine.Evaluate(p, 4, aggregate);
        ASSERT_LT(exact.distance, kInfWeight);
        // At its own value p is never pruned, bit for bit the same.
        const GphiResult tie =
            engine.EvaluateBounded(p, 4, aggregate, exact.distance);
        EXPECT_TRUE(SameBits(tie.distance, exact.distance)) << "p = " << p;
        EXPECT_EQ(tie.subset, exact.subset);
        // Far below it, p either comes back pruned or exact.
        const GphiResult low =
            engine.EvaluateBounded(p, 4, aggregate, exact.distance / 4.0);
        if (low.distance == kInfWeight) {
          EXPECT_TRUE(low.subset.empty());
          ++pruned;
        } else {
          EXPECT_TRUE(SameBits(low.distance, exact.distance));
        }
      }
    }
  }
  EXPECT_GT(pruned, 60u);
}

}  // namespace
}  // namespace fannr
