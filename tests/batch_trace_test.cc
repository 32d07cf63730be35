// Observability-layer behavior of BatchQueryEngine: per-job validation
// (the precondition bugfix — malformed jobs are rejected with a reported
// error instead of undefined behavior), trace contents, slow-query log
// feeding, and BatchReport consistency.

#include <bit>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/batch_engine.h"
#include "fann/fannr.h"
#include "fann_world.h"
#include "test_util.h"

namespace fannr {
namespace {

struct SmallBatch {
  std::deque<IndexedVertexSet> sets;
  std::vector<FannrQuery> jobs;

  explicit SmallBatch(const Graph& graph, size_t n = 4, uint64_t seed = 99) {
    Rng rng(seed);
    const auto& p = sets.emplace_back(
        graph.NumVertices(), testing::SampleVertices(graph, 20, rng));
    for (size_t i = 0; i < n; ++i) {
      const auto& q = sets.emplace_back(
          graph.NumVertices(), testing::SampleVertices(graph, 8, rng));
      FannrQuery job;
      job.query = FannQuery{&graph, &p, &q, 0.5, Aggregate::kSum};
      job.algorithm = FannAlgorithm::kGd;
      jobs.push_back(job);
    }
  }
};

TEST(BatchValidationTest, ForeignGraphJobIsRejectedNotUndefined) {
  const auto& world = testing::FannWorld::Get();
  const Graph& graph = world.graph();
  // A second graph with live pointers: pre-fix this was documented as
  // "must equal the engine's graph" but never checked per job.
  Graph other = testing::MakeSmallGrid(4, 4);
  Rng rng(5);
  IndexedVertexSet other_p(other.NumVertices(), {0, 5, 10});
  IndexedVertexSet other_q(other.NumVertices(), {1, 6});

  SmallBatch batch(graph, 3);
  FannrQuery foreign;
  foreign.query = FannQuery{&other, &other_p, &other_q, 0.5, Aggregate::kSum};
  foreign.algorithm = FannAlgorithm::kGd;
  batch.jobs.insert(batch.jobs.begin() + 1, foreign);

  BatchOptions options;
  options.num_threads = 2;
  BatchQueryEngine engine(world.Resources(), options);
  const auto results = engine.Run(batch.jobs);
  ASSERT_EQ(results.size(), 4u);

  EXPECT_EQ(results[1].status, QueryStatus::kRejected);
  EXPECT_NE(results[1].error.find("engine's graph"), std::string::npos);
  EXPECT_EQ(results[1].best, kInvalidVertex);
  // Surrounding jobs still answered.
  for (size_t i : {size_t{0}, size_t{2}, size_t{3}}) {
    EXPECT_EQ(results[i].status, QueryStatus::kOk) << i;
    EXPECT_NE(results[i].best, kInvalidVertex) << i;
  }
}

TEST(BatchValidationTest, NullSetJobsAreRejectedPerJob) {
  const auto& world = testing::FannWorld::Get();
  const Graph& graph = world.graph();
  SmallBatch batch(graph, 2);

  FannrQuery null_p = batch.jobs[0];
  null_p.query.data_points = nullptr;
  FannrQuery null_q = batch.jobs[0];
  null_q.query.query_points = nullptr;
  FannrQuery null_graph = batch.jobs[0];
  null_graph.query.graph = nullptr;
  FannrQuery bad_phi = batch.jobs[0];
  bad_phi.query.phi = 1.5;
  FannrQuery bad_aggregate = batch.jobs[0];
  bad_aggregate.algorithm = FannAlgorithm::kExactMax;  // max-only vs kSum
  batch.jobs.push_back(null_p);
  batch.jobs.push_back(null_q);
  batch.jobs.push_back(null_graph);
  batch.jobs.push_back(bad_phi);
  batch.jobs.push_back(bad_aggregate);

  BatchQueryEngine engine(world.Resources(), BatchOptions{});
  const auto results = engine.Run(batch.jobs);
  ASSERT_EQ(results.size(), 7u);
  EXPECT_EQ(results[0].status, QueryStatus::kOk);
  EXPECT_EQ(results[1].status, QueryStatus::kOk);
  EXPECT_NE(results[2].error.find("data_points"), std::string::npos);
  EXPECT_NE(results[3].error.find("query_points"), std::string::npos);
  EXPECT_NE(results[4].error.find("graph is null"), std::string::npos);
  EXPECT_NE(results[5].error.find("phi"), std::string::npos);
  EXPECT_NE(results[6].error.find("aggregate"), std::string::npos);
  for (size_t i = 2; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, QueryStatus::kRejected) << i;
    EXPECT_EQ(results[i].distance, kInfWeight) << i;
  }
}

TEST(BatchValidationTest, RejectedIerJobDoesNotBuildRTree) {
  // A null-P IER job must be screened out before the R-tree pre-build
  // phase dereferences query.data_points.
  const auto& world = testing::FannWorld::Get();
  SmallBatch batch(world.graph(), 1);
  FannrQuery bad = batch.jobs[0];
  bad.algorithm = FannAlgorithm::kIer;
  bad.query.data_points = nullptr;
  batch.jobs.push_back(bad);
  BatchQueryEngine engine(world.Resources(), BatchOptions{});
  const auto results = engine.Run(batch.jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, QueryStatus::kOk);
  EXPECT_EQ(results[1].status, QueryStatus::kRejected);
}

TEST(BatchTraceTest, TracesAlignedAndConsistent) {
  const auto& world = testing::FannWorld::Get();
  SmallBatch batch(world.graph(), 6);

  BatchOptions options;
  options.num_threads = 2;
  options.enable_metrics = true;
  options.slow_query_threshold_ms = 0.0;  // retain every trace
  BatchQueryEngine engine(world.Resources(), options);
  const auto results = engine.Run(batch.jobs);

  const auto& traces = engine.last_traces();
  ASSERT_EQ(traces.size(), batch.jobs.size());
  size_t attributed_hits = 0, attributed_misses = 0;
  for (size_t i = 0; i < traces.size(); ++i) {
    const auto& trace = traces[i];
    EXPECT_EQ(trace.query_index, i);
    EXPECT_LT(trace.worker, engine.num_threads());
    EXPECT_EQ(trace.status, QueryStatus::kOk);
    EXPECT_EQ(trace.algorithm, FannAlgorithm::kGd);
    EXPECT_GE(trace.solve_ms, 0.0);
    EXPECT_GE(trace.dispatch_wait_ms, 0.0);
    // GD evaluates every candidate: counters must match the result's.
    EXPECT_EQ(trace.gphi_evaluations, results[i].gphi_evaluations);
    EXPECT_EQ(trace.gphi_evaluate_calls, results[i].gphi_evaluations);
    EXPECT_EQ(trace.best, results[i].best);
    EXPECT_EQ(trace.cache_hits + trace.cache_misses,
              results[i].gphi_evaluations);
    // Phase breakdown is contained in the solve span.
    EXPECT_LE(trace.gphi_prepare_ms + trace.gphi_evaluate_ms,
              trace.solve_ms + 1.0);
    ASSERT_EQ(trace.spans.size(), 2u);
    EXPECT_EQ(trace.spans[0].name, "dispatch-wait");
    EXPECT_EQ(trace.spans[1].name, "solve");
    attributed_hits += trace.cache_hits;
    attributed_misses += trace.cache_misses;
  }

  // Per-query attribution must reconcile exactly with the shared cache's
  // own counters and the registry's published totals.
  const auto cache_stats = engine.cache_stats();
  EXPECT_EQ(attributed_hits, cache_stats.hits);
  EXPECT_EQ(attributed_misses, cache_stats.misses);
  const auto snapshot = engine.metrics()->Snapshot();
  EXPECT_EQ(snapshot.counter("cache.hits"), cache_stats.hits);
  EXPECT_EQ(snapshot.counter("cache.misses"), cache_stats.misses);
  EXPECT_EQ(snapshot.counter("engine.queries"), batch.jobs.size());
  EXPECT_EQ(snapshot.counter("engine.rejected_queries"), 0u);

  // Slow log with threshold 0 retained everything (capacity permitting).
  ASSERT_NE(engine.slow_query_log(), nullptr);
  EXPECT_EQ(engine.slow_query_log()->total_admitted(), batch.jobs.size());
}

TEST(BatchTraceTest, BatchReportConsistency) {
  const auto& world = testing::FannWorld::Get();
  SmallBatch batch(world.graph(), 8);
  FannrQuery bad = batch.jobs[0];
  bad.query.phi = -1.0;
  batch.jobs.push_back(bad);

  BatchOptions options;
  options.num_threads = 4;
  options.enable_metrics = true;
  BatchQueryEngine engine(world.Resources(), options);
  engine.Run(batch.jobs);

  const auto& report = engine.last_report();
  EXPECT_EQ(report.batch_size, 9u);
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_EQ(report.num_threads, 4u);
  EXPECT_GT(report.wall_ms, 0.0);
  EXPECT_GT(report.queries_per_second, 0.0);
  EXPECT_EQ(report.solve_ms.count, 8u);  // rejected job not timed
  // hits + misses == lookups, attributed == cache-side.
  EXPECT_EQ(report.attributed_cache_hits, report.cache.hits);
  EXPECT_EQ(report.attributed_cache_misses, report.cache.misses);
  EXPECT_GT(report.cache.hits + report.cache.misses, 0u);
  EXPECT_EQ(report.pool_indices_executed, 9u);
  EXPECT_EQ(report.metrics.counter("engine.rejected_queries"), 1u);

  // Serializations are well-formed enough to carry the key fields.
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"queries_per_second\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"lookups\""), std::string::npos);
  const std::string text = report.ToText();
  EXPECT_NE(text.find("queries/s"), std::string::npos);

  // A second Run resets the per-batch report.
  SmallBatch second(world.graph(), 2, /*seed=*/123);
  engine.Run(second.jobs);
  EXPECT_EQ(engine.last_report().batch_size, 2u);
  EXPECT_EQ(engine.last_report().rejected, 0u);
}

TEST(BatchTraceTest, TracedJobsKeepTheirBestBoundedRows) {
  // Every job runs through the tracing wrapper under enable_metrics, so
  // the wrapper must pass each solver's bound on: the same rows stop on
  // it (pruned_rows) as without tracing, and the answers agree bitwise.
  const auto& world = testing::FannWorld::Get();
  SmallBatch batch(world.graph(), 8);
  std::vector<FannResult> results[2];
  size_t pruned_rows[2] = {};
  for (bool traced : {false, true}) {
    BatchOptions options;
    options.num_threads = 1;
    options.cache_capacity = 2;  // full from the third miss on
    options.enable_metrics = traced;
    BatchQueryEngine engine(world.Resources(), options);
    results[traced] = engine.Run(batch.jobs);
    pruned_rows[traced] = engine.cache_stats().pruned_rows;
    if (traced) {
      EXPECT_EQ(engine.last_report().cache.pruned_rows, pruned_rows[traced]);
      EXPECT_NE(engine.last_report().ToJson().find("\"pruned_rows\""),
                std::string::npos);
    }
  }
  EXPECT_GT(pruned_rows[false], 0u);
  EXPECT_EQ(pruned_rows[true], pruned_rows[false]);
  ASSERT_EQ(results[true].size(), results[false].size());
  for (size_t i = 0; i < results[true].size(); ++i) {
    EXPECT_EQ(results[true][i].best, results[false][i].best);
    EXPECT_EQ(std::bit_cast<uint64_t>(results[true][i].distance),
              std::bit_cast<uint64_t>(results[false][i].distance));
    EXPECT_EQ(results[true][i].subset, results[false][i].subset);
    EXPECT_EQ(results[true][i].gphi_evaluations,
              results[false][i].gphi_evaluations);
  }
}

TEST(BatchTraceTest, SlowQueryLogPersistsAcrossRuns) {
  const auto& world = testing::FannWorld::Get();
  SmallBatch batch(world.graph(), 3);
  BatchOptions options;
  options.enable_metrics = true;
  options.slow_query_threshold_ms = 0.0;
  options.slow_query_log_capacity = 4;
  BatchQueryEngine engine(world.Resources(), options);
  engine.Run(batch.jobs);
  engine.Run(batch.jobs);
  // 6 offers into capacity 4: wrapped, newest retained.
  EXPECT_EQ(engine.slow_query_log()->total_offered(), 6u);
  EXPECT_EQ(engine.slow_query_log()->Entries().size(), 4u);
}

TEST(BatchTraceTest, MetricsDisabledKeepsObservationSurfacesEmpty) {
  const auto& world = testing::FannWorld::Get();
  SmallBatch batch(world.graph(), 2);
  BatchQueryEngine engine(world.Resources(), BatchOptions{});
  engine.Run(batch.jobs);
  EXPECT_TRUE(engine.last_traces().empty());
  EXPECT_EQ(engine.slow_query_log(), nullptr);
  EXPECT_EQ(engine.metrics(), nullptr);
  EXPECT_EQ(engine.last_report().batch_size, 0u);
}

TEST(BatchTraceTest, GphiKindOracleTracesWithoutCacheAttribution) {
  // Table I oracle mode: tracing still works; cache fields stay zero.
  const auto& world = testing::FannWorld::Get();
  SmallBatch batch(world.graph(), 3);
  BatchOptions options;
  options.num_threads = 2;
  options.gphi_kind = GphiKind::kIne;
  options.enable_metrics = true;
  BatchQueryEngine engine(world.Resources(), options);
  const auto results = engine.Run(batch.jobs);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& trace : engine.last_traces()) {
    EXPECT_EQ(trace.status, QueryStatus::kOk);
    EXPECT_EQ(trace.cache_hits, 0u);
    EXPECT_EQ(trace.cache_misses, 0u);
    EXPECT_GT(trace.gphi_evaluate_calls, 0u);
  }
  EXPECT_EQ(engine.last_report().attributed_cache_hits, 0u);
}

}  // namespace
}  // namespace fannr
