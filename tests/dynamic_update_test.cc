// Live edge-weight updates (src/dynamic/update.h) and everything keyed
// off the graph epoch: the UpdateBatch apply semantics, the
// cache-poisoning regression (epoch-stale distance vectors must never be
// served), the stale-index fallback in the batch engine, cross-thread
// agreement after updates, and mid-batch update rejection.

#include "dynamic/update.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "engine/batch_engine.h"
#include "engine/cached_sssp.h"
#include "engine/distance_cache.h"
#include "fann/fannr.h"
#include "graph/builder.h"
#include "sp/ch/contraction_hierarchy.h"
#include "sp/gtree/gtree.h"
#include "sp/label/hub_labels.h"
#include "test_util.h"

namespace fannr {
namespace {

using dynamic::ApplyResult;
using dynamic::MakeCongestionWave;
using dynamic::UpdateBatch;

// ---- UpdateBatch / Graph::ApplyWeightUpdates semantics -----------------

TEST(DynamicUpdateTest, SetWeightUpdatesBothArcDirections) {
  Graph g = testing::MakeLineGraph(4, 1.0);
  EXPECT_EQ(g.epoch(), 0u);

  UpdateBatch batch;
  batch.SetWeight(2, 1, 5.0);  // endpoint order must not matter
  const ApplyResult result = batch.Apply(g);

  EXPECT_EQ(result.applied, 1u);
  EXPECT_EQ(result.missing, 0u);
  EXPECT_EQ(result.old_epoch, 0u);
  EXPECT_EQ(result.new_epoch, 1u);
  EXPECT_EQ(g.epoch(), 1u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2).value(), 5.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(2, 1).value(), 5.0);
  // Untouched edges keep their weight.
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1).value(), 1.0);
}

TEST(DynamicUpdateTest, EpochBumpsOncePerBatch) {
  Graph g = testing::MakeLineGraph(5, 1.0);
  UpdateBatch batch;
  batch.SetWeight(0, 1, 2.0);
  batch.SetWeight(1, 2, 3.0);
  batch.SetWeight(2, 3, 4.0);
  const ApplyResult result = batch.Apply(g);
  EXPECT_EQ(result.applied, 3u);
  EXPECT_EQ(g.epoch(), 1u);  // one bump for the whole batch
}

TEST(DynamicUpdateTest, MissingEdgeBatchDoesNotBumpEpoch) {
  Graph g = testing::MakeLineGraph(4, 1.0);
  UpdateBatch batch;
  batch.SetWeight(0, 3, 2.0);  // no such edge in a path graph
  const ApplyResult result = batch.Apply(g);
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.missing, 1u);
  EXPECT_EQ(result.new_epoch, 0u);
  EXPECT_EQ(g.epoch(), 0u);
}

TEST(DynamicUpdateTest, DuplicateEdgeEntriesLastWriterWins) {
  Graph g = testing::MakeLineGraph(3, 1.0);
  UpdateBatch batch;
  batch.SetWeight(0, 1, 5.0);
  batch.SetWeight(1, 0, 7.0);  // same undirected edge, later entry
  const ApplyResult result = batch.Apply(g);
  EXPECT_EQ(result.applied, 1u);  // deduplicated before applying
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1).value(), 7.0);
}

TEST(DynamicUpdateTest, ScaleWeightReadsCurrentWeight) {
  Graph g = testing::MakeLineGraph(3, 2.0);
  UpdateBatch first;
  first.ScaleWeight(g, 0, 1, 3.0);
  first.Apply(g);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1).value(), 6.0);

  // A second scale compounds on the post-update weight.
  UpdateBatch second;
  second.ScaleWeight(g, 0, 1, 0.5);
  second.Apply(g);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1).value(), 3.0);
  EXPECT_EQ(g.epoch(), 2u);
}

TEST(DynamicUpdateTest, ValidationCatchesMalformedEntries) {
  Graph g = testing::MakeLineGraph(3, 1.0);
  {
    UpdateBatch batch;
    batch.SetWeight(0, 99, 1.0);  // endpoint out of range
    EXPECT_FALSE(batch.ValidationError(g).empty());
  }
  {
    UpdateBatch batch;
    batch.SetWeight(1, 1, 1.0);  // self-loop
    EXPECT_FALSE(batch.ValidationError(g).empty());
  }
  {
    UpdateBatch batch;
    batch.SetWeight(0, 1, 0.0);  // weights must stay strictly positive
    EXPECT_FALSE(batch.ValidationError(g).empty());
  }
  {
    UpdateBatch batch;
    batch.SetWeight(0, 1, -2.0);
    EXPECT_FALSE(batch.ValidationError(g).empty());
  }
  {
    UpdateBatch batch;
    batch.SetWeight(0, 1, std::numeric_limits<double>::infinity());
    EXPECT_FALSE(batch.ValidationError(g).empty());
  }
  {
    UpdateBatch batch;
    batch.SetWeight(0, 1, 2.0);  // well-formed; missing edges are not
    batch.SetWeight(0, 2, 2.0);  // a validation error (reported by Apply)
    EXPECT_TRUE(batch.ValidationError(g).empty());
  }
}

TEST(DynamicUpdateTest, FingerprintTracksWeightChangesAndRestores) {
  Graph g = testing::MakeLineGraph(4, 1.0);
  const GraphFingerprint before = g.Fingerprint();

  UpdateBatch change;
  change.SetWeight(1, 2, 9.0);
  change.Apply(g);
  EXPECT_NE(g.Fingerprint(), before);

  // The checksum is an order-independent sum over arcs, so restoring the
  // weight restores the fingerprint (the epoch still advances).
  UpdateBatch restore;
  restore.SetWeight(1, 2, 1.0);
  restore.Apply(g);
  EXPECT_EQ(g.Fingerprint(), before);
  EXPECT_EQ(g.epoch(), 2u);
}

TEST(DynamicUpdateTest, CongestionWaveIsDeterministicInRngState) {
  Graph g = testing::MakeRandomNetwork(200, 11);
  Rng rng_a(42), rng_b(42);
  UpdateBatch a = MakeCongestionWave(g, 0.3, 0.5, 2.0, rng_a);
  UpdateBatch b = MakeCongestionWave(g, 0.3, 0.5, 2.0, rng_b);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.updates()[i].u, b.updates()[i].u);
    EXPECT_EQ(a.updates()[i].v, b.updates()[i].v);
    EXPECT_DOUBLE_EQ(a.updates()[i].new_weight, b.updates()[i].new_weight);
  }
}

TEST(DynamicUpdateTest, ShortestPathsReflectUpdatedWeights) {
  // 0-1-2-3 path, all weight 1. Making the middle edge expensive must
  // show up in a fresh Dijkstra immediately (no rebuild of anything).
  Graph g = testing::MakeLineGraph(4, 1.0);
  EXPECT_DOUBLE_EQ(DijkstraSssp(g, 0)[3], 3.0);
  UpdateBatch batch;
  batch.SetWeight(1, 2, 10.0);
  batch.Apply(g);
  EXPECT_DOUBLE_EQ(DijkstraSssp(g, 0)[3], 12.0);
}

// ---- Cache poisoning regression ----------------------------------------

// An SSSP vector cached before an update must never be served after it:
// the probe carries the current epoch and the stale entry is reclaimed.
TEST(DynamicUpdateTest, CachedSsspNeverServesPreUpdateDistances) {
  Graph g = testing::MakeLineGraph(5, 1.0);
  auto cache = std::make_shared<SourceDistanceCache>(/*capacity=*/8,
                                                     /*num_shards=*/1);
  CachedSsspEngine engine(g, cache);

  std::vector<VertexId> q_members = {4};
  IndexedVertexSet q(g.NumVertices(), q_members);
  engine.Prepare(q);

  // Populate the cache: g_1(0, {4}) = d(0, 4) = 4.
  GphiResult before = engine.Evaluate(0, 1, Aggregate::kMax);
  EXPECT_DOUBLE_EQ(before.distance, 4.0);
  EXPECT_EQ(engine.probe_counters().misses, 1u);

  // Same candidate again: served from the cache.
  engine.Evaluate(0, 1, Aggregate::kMax);
  EXPECT_EQ(engine.probe_counters().hits, 1u);

  UpdateBatch batch;
  batch.SetWeight(2, 3, 10.0);
  batch.Apply(g);

  // Post-update evaluation: the epoch-stale vector must be reclaimed and
  // the answer recomputed on the new weights.
  GphiResult after = engine.Evaluate(0, 1, Aggregate::kMax);
  EXPECT_DOUBLE_EQ(after.distance, 13.0);
  EXPECT_EQ(engine.probe_counters().epoch_evictions, 1u);
  EXPECT_EQ(cache->stats().epoch_evictions, 1u);

  // And the recomputed vector is cached at the new epoch.
  GphiResult again = engine.Evaluate(0, 1, Aggregate::kMax);
  EXPECT_DOUBLE_EQ(again.distance, 13.0);
  EXPECT_EQ(engine.probe_counters().hits, 2u);
  EXPECT_EQ(engine.probe_counters().epoch_evictions, 1u);
}

// ---- Index epoch tagging and the stale-index fallback ------------------

TEST(DynamicUpdateTest, IndexesReportStalenessAfterUpdate) {
  Graph g = testing::MakeRandomNetwork(150, 17);
  auto labels = HubLabels::Build(g);
  ASSERT_TRUE(labels.has_value());
  GTree::Options gtree_options;
  gtree_options.leaf_capacity = 16;
  GTree gtree = GTree::Build(g, gtree_options);
  ContractionHierarchy ch = ContractionHierarchy::Build(g);

  EXPECT_TRUE(labels->FreshFor(g));
  EXPECT_TRUE(gtree.FreshFor(g));
  EXPECT_TRUE(ch.FreshFor(g));

  Rng rng(3);
  UpdateBatch wave = MakeCongestionWave(g, 0.2, 0.5, 2.0, rng);
  ASSERT_GT(wave.size(), 0u);
  wave.Apply(g);

  EXPECT_FALSE(labels->FreshFor(g));
  EXPECT_FALSE(gtree.FreshFor(g));
  EXPECT_FALSE(ch.FreshFor(g));

  GphiResources resources;
  resources.graph = &g;
  resources.labels = &*labels;
  resources.gtree = &gtree;
  resources.ch = &ch;
  EXPECT_FALSE(StaleIndexReason(GphiKind::kPhl, resources).empty());
  EXPECT_FALSE(StaleIndexReason(GphiKind::kGTree, resources).empty());
  EXPECT_FALSE(StaleIndexReason(GphiKind::kCh, resources).empty());
  // Index-free kinds are never stale.
  EXPECT_TRUE(StaleIndexReason(GphiKind::kIne, resources).empty());
  EXPECT_TRUE(StaleIndexReason(GphiKind::kAStar, resources).empty());
}

TEST(DynamicUpdateTest, BatchEngineFallsBackOnStaleIndexAndStaysCorrect) {
  Graph g = testing::MakeRandomNetwork(250, 23);
  auto labels = HubLabels::Build(g);
  ASSERT_TRUE(labels.has_value());

  GphiResources resources;
  resources.graph = &g;
  resources.labels = &*labels;
  BatchOptions options;
  options.num_threads = 2;
  options.gphi_kind = GphiKind::kPhl;
  options.enable_metrics = true;
  BatchQueryEngine engine(resources, options);

  Rng rng(5);
  std::vector<VertexId> p_members = testing::SampleVertices(g, 20, rng);
  std::vector<VertexId> q_members = testing::SampleVertices(g, 8, rng);
  IndexedVertexSet p(g.NumVertices(), p_members);
  IndexedVertexSet q(g.NumVertices(), q_members);
  FannrQuery job;
  job.query = FannQuery{&g, &p, &q, 0.5, Aggregate::kMax};
  job.algorithm = FannAlgorithm::kGd;
  const std::vector<FannrQuery> batch(4, job);

  // Fresh index: no fallback.
  std::vector<FannResult> fresh = engine.Run(batch);
  ASSERT_EQ(fresh.size(), batch.size());
  EXPECT_EQ(engine.last_report().stale_index_fallbacks, 0u);
  for (const auto& trace : engine.last_traces()) {
    EXPECT_FALSE(trace.stale_index_fallback);
  }

  UpdateBatch wave;
  wave.ScaleWeight(g, p_members[0],
                   g.Neighbors(p_members[0]).front().to, 4.0);
  wave.Apply(g);

  // Stale index: every job is answered by the index-free fallback, the
  // traces say so, and the answers match a brute-force oracle on the
  // CURRENT weights (a stale PHL answer would not).
  std::vector<FannResult> after = engine.Run(batch);
  ASSERT_EQ(after.size(), batch.size());
  EXPECT_EQ(engine.last_report().stale_index_fallbacks, batch.size());
  const auto brute = testing::BruteForceFann(g, p_members, q_members, 0.5,
                                             Aggregate::kMax);
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].status, QueryStatus::kOk);
    EXPECT_NEAR(after[i].distance, brute.distance, 1e-9);
    EXPECT_TRUE(engine.last_traces()[i].stale_index_fallback);
    EXPECT_FALSE(engine.last_traces()[i].fallback_reason.empty());
  }
}

// ---- Post-update agreement across thread counts ------------------------

TEST(DynamicUpdateTest, ThreadCountsAgreeBitwiseAfterUpdates) {
  Graph g = testing::MakeRandomNetwork(300, 29);
  Rng rng(7);
  std::vector<VertexId> p_members = testing::SampleVertices(g, 30, rng);
  std::vector<VertexId> q_members = testing::SampleVertices(g, 10, rng);
  IndexedVertexSet p(g.NumVertices(), p_members);
  IndexedVertexSet q(g.NumVertices(), q_members);

  std::vector<FannrQuery> batch;
  for (FannAlgorithm algorithm :
       {FannAlgorithm::kGd, FannAlgorithm::kRList}) {
    FannrQuery job;
    job.query = FannQuery{&g, &p, &q, 0.5, Aggregate::kSum};
    job.algorithm = algorithm;
    batch.push_back(job);
  }

  GphiResources resources;
  resources.graph = &g;
  std::vector<std::unique_ptr<BatchQueryEngine>> engines;
  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions options;
    options.num_threads = threads;
    options.cache_capacity = 64;
    engines.push_back(std::make_unique<BatchQueryEngine>(resources, options));
  }

  for (int wave_idx = 0; wave_idx < 3; ++wave_idx) {
    UpdateBatch wave = MakeCongestionWave(g, 0.25, 0.5, 2.5, rng);
    if (wave.empty()) wave.ScaleWeight(g, 0, g.Neighbors(0).front().to, 1.5);
    wave.Apply(g);

    const auto brute = testing::BruteForceFann(g, p_members, q_members, 0.5,
                                               Aggregate::kSum);
    std::vector<FannResult> reference = engines[0]->Run(batch);
    for (const FannResult& result : reference) {
      EXPECT_EQ(result.status, QueryStatus::kOk);
      EXPECT_NEAR(result.distance, brute.distance, 1e-9)
          << "wave " << wave_idx;
    }
    for (size_t e = 1; e < engines.size(); ++e) {
      std::vector<FannResult> results = engines[e]->Run(batch);
      ASSERT_EQ(results.size(), reference.size());
      for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].best, reference[i].best);
        EXPECT_EQ(results[i].distance, reference[i].distance);  // bitwise
        EXPECT_EQ(results[i].subset, reference[i].subset);
        EXPECT_EQ(results[i].gphi_evaluations,
                  reference[i].gphi_evaluations);
      }
    }
  }
}

// ---- Mid-batch update rejection ----------------------------------------

// Two disconnected components: queries touch only component A while a
// concurrent updater rescales an edge in component B. Workers therefore
// never read a mutating weight (the epoch counter is atomic), keeping
// the test exact under TSan, yet the epoch still advances mid-batch and
// the engine must reject the straddled jobs rather than return results
// computed across the boundary.
TEST(DynamicUpdateTest, MidBatchUpdateRejectsInFlightJobs) {
  GraphBuilder builder;
  const size_t side = 14;  // component A: side x side grid
  for (size_t r = 0; r < side; ++r) {
    for (size_t c = 0; c < side; ++c) {
      builder.AddVertex(Point{static_cast<double>(c),
                              static_cast<double>(r)});
    }
  }
  auto grid_id = [&](size_t r, size_t c) {
    return static_cast<VertexId>(r * side + c);
  };
  for (size_t r = 0; r < side; ++r) {
    for (size_t c = 0; c < side; ++c) {
      if (c + 1 < side) builder.AddEdge(grid_id(r, c), grid_id(r, c + 1), 1.0);
      if (r + 1 < side) builder.AddEdge(grid_id(r, c), grid_id(r + 1, c), 1.0);
    }
  }
  // Component B: one isolated edge the updater hammers.
  const VertexId b0 = builder.AddVertex(Point{100.0, 100.0});
  const VertexId b1 = builder.AddVertex(Point{101.0, 100.0});
  builder.AddEdge(b0, b1, 1.0);
  Graph g = builder.Build();

  Rng rng(13);
  std::vector<VertexId> p_members;
  std::vector<VertexId> q_members;
  for (size_t i = 0; i < 24; ++i) {
    p_members.push_back(grid_id(rng.NextIndex(side), rng.NextIndex(side)));
  }
  std::sort(p_members.begin(), p_members.end());
  p_members.erase(std::unique(p_members.begin(), p_members.end()),
                  p_members.end());
  for (size_t i = 0; i < 40; ++i) {
    const VertexId v = grid_id(rng.NextIndex(side), rng.NextIndex(side));
    if (std::find(q_members.begin(), q_members.end(), v) == q_members.end()) {
      q_members.push_back(v);
    }
  }
  IndexedVertexSet p(g.NumVertices(), p_members);
  IndexedVertexSet q(g.NumVertices(), q_members);
  FannrQuery job;
  job.query = FannQuery{&g, &p, &q, 0.5, Aggregate::kSum};
  job.algorithm = FannAlgorithm::kGd;
  const std::vector<FannrQuery> batch(64, job);

  GphiResources resources;
  resources.graph = &g;
  BatchOptions options;
  options.num_threads = 2;
  options.cache_capacity = 64;
  BatchQueryEngine engine(resources, options);
  const auto brute = testing::BruteForceFann(g, p_members, q_members, 0.5,
                                             Aggregate::kSum);

  size_t rejected_total = 0;
  // Attempts run until one straddles an epoch change: at least 20, and
  // past those until 5 s have passed. On a box busier than it has cores
  // the updater can miss a ~0.5 ms batch many times in a row.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (int attempt = 0;
       rejected_total == 0 &&
       (attempt < 20 || std::chrono::steady_clock::now() < give_up);
       ++attempt) {
    std::atomic<bool> stop{false};
    std::atomic<bool> updating{false};
    std::thread updater([&] {
      double weight = 2.0;
      while (!stop.load(std::memory_order_relaxed)) {
        const EdgeWeightUpdate update{b0, b1, weight};
        g.ApplyWeightUpdates({&update, 1});
        updating.store(true, std::memory_order_relaxed);
        weight = weight >= 8.0 ? 2.0 : weight + 1.0;
        std::this_thread::yield();
      }
    });
    // The calling thread solves as the engine's worker 0, so it never
    // blocks early in Run to let a just-created updater onto its CPU:
    // start the batch only once the updater is already applying.
    while (!updating.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
    const std::vector<FannResult> results = engine.Run(batch);
    stop.store(true, std::memory_order_relaxed);
    updater.join();

    for (const FannResult& result : results) {
      if (result.status == QueryStatus::kRejected) {
        ++rejected_total;
        EXPECT_NE(result.error.find("mid-batch"), std::string::npos)
            << result.error;
        EXPECT_EQ(result.best, kInvalidVertex);
      } else {
        // Jobs that completed under their admission epoch are exact:
        // the update never touched component A's weights.
        EXPECT_EQ(result.status, QueryStatus::kOk);
        EXPECT_NEAR(result.distance, brute.distance, 1e-9);
      }
    }
  }
  // The updater bumps the epoch many times per batch; across the
  // attempts at least one job must have straddled an epoch change.
  EXPECT_GT(rejected_total, 0u);

  // With the updater quiesced the same engine accepts everything again.
  const std::vector<FannResult> calm = engine.Run(batch);
  for (const FannResult& result : calm) {
    EXPECT_EQ(result.status, QueryStatus::kOk);
    EXPECT_NEAR(result.distance, brute.distance, 1e-9);
  }
}

}  // namespace
}  // namespace fannr
