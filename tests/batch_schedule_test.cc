// Steady-state allocation and worker independence of BatchQueryEngine:
// with warm per-worker engines a whole batch runs with zero FlatHeap
// growths, for the SSSP-backed solvers and for the solvers on
// IncrementalNnSearch, and INE answers do not depend on which of four
// workers ran a job.

#include <algorithm>
#include <bit>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_heap.h"
#include "engine/batch_engine.h"
#include "fann/fannr.h"
#include "fann_world.h"
#include "test_util.h"

namespace fannr {
namespace {

void ExpectByteIdentical(const FannResult& a, const FannResult& b,
                         const std::string& label) {
  ASSERT_EQ(a.status, b.status) << label;
  ASSERT_EQ(a.best, b.best) << label;
  ASSERT_EQ(std::bit_cast<uint64_t>(a.distance),
            std::bit_cast<uint64_t>(b.distance))
      << label;
  ASSERT_EQ(a.subset, b.subset) << label;
  ASSERT_EQ(a.gphi_evaluations, b.gphi_evaluations) << label;
  ASSERT_EQ(a.error, b.error) << label;
}

struct Workload {
  std::deque<IndexedVertexSet> sets;
  std::vector<FannrQuery> jobs;
};

// Many jobs over FEW distinct P sets, two of which are value-identical
// at different addresses, plus a malformed job that is rejected at
// screening, plus a singleton P.
Workload MakeSharedPWorkload(const Graph& graph, uint64_t seed) {
  Workload w;
  Rng rng(seed);
  const auto p1_members = testing::SampleVertices(graph, 24, rng);
  const auto& p1 = w.sets.emplace_back(graph.NumVertices(), p1_members);
  // Same members, reversed insertion order, distinct address.
  auto p1_reversed = p1_members;
  std::reverse(p1_reversed.begin(), p1_reversed.end());
  const auto& p1_alias =
      w.sets.emplace_back(graph.NumVertices(), p1_reversed);
  const auto& p2 = w.sets.emplace_back(
      graph.NumVertices(), testing::SampleVertices(graph, 16, rng));
  const auto& p3 = w.sets.emplace_back(
      graph.NumVertices(), testing::SampleVertices(graph, 4, rng));
  const auto& empty_q =
      w.sets.emplace_back(graph.NumVertices(), std::vector<VertexId>{});

  const IndexedVertexSet* ps[] = {&p1, &p1_alias, &p1, &p2, &p3, &p1_alias,
                                  &p2, &p1};
  for (int i = 0; i < 24; ++i) {
    const auto& q = w.sets.emplace_back(
        graph.NumVertices(), testing::SampleVertices(graph, 8, rng));
    FannrQuery job;
    job.query = FannQuery{&graph, ps[i % 8], &q, 0.5,
                          i % 2 == 0 ? Aggregate::kSum : Aggregate::kMax};
    job.algorithm = FannAlgorithm::kGd;
    w.jobs.push_back(job);
  }
  // Malformed: empty Q, rejected at screening.
  FannrQuery bad;
  bad.query = FannQuery{&graph, &p1, &empty_q, 0.5, Aggregate::kSum};
  bad.algorithm = FannAlgorithm::kGd;
  w.jobs.push_back(bad);
  return w;
}

// The solvers that run on IncrementalNnSearch: R-List (sum and max),
// Exact-max (max only) and APX-sum (sum only), over a few shared P sets.
Workload MakeIneWorkload(const Graph& graph, uint64_t seed) {
  Workload w;
  Rng rng(seed);
  std::vector<const IndexedVertexSet*> ps;
  for (const size_t p_size : {size_t{24}, size_t{40}, size_t{12}}) {
    ps.push_back(&w.sets.emplace_back(
        graph.NumVertices(), testing::SampleVertices(graph, p_size, rng)));
  }
  for (int i = 0; i < 24; ++i) {
    const auto& q = w.sets.emplace_back(
        graph.NumVertices(), testing::SampleVertices(graph, 4 + i % 3 * 4, rng));
    FannrQuery job;
    const double phi = i % 4 == 0 ? 1.0 : 0.5;
    switch (i % 4) {
      case 0:
      case 1:
        job.algorithm = FannAlgorithm::kRList;
        job.query = FannQuery{&graph, ps[i % 3], &q, phi,
                              i % 2 == 0 ? Aggregate::kSum : Aggregate::kMax};
        break;
      case 2:
        job.algorithm = FannAlgorithm::kExactMax;
        job.query = FannQuery{&graph, ps[i % 3], &q, phi, Aggregate::kMax};
        break;
      default:
        job.algorithm = FannAlgorithm::kApxSum;
        job.query = FannQuery{&graph, ps[i % 3], &q, phi, Aggregate::kSum};
        break;
    }
    w.jobs.push_back(job);
  }
  return w;
}

TEST(BatchScheduleTest, WarmEngineRunsBatchesWithZeroHeapGrowths) {
  // The allocation contract behind the thread-scaling gate: after one
  // warmup batch, the persistent per-worker search state (FlatHeap
  // frontiers, SSSP scratch) is fully grown, and a repeat batch performs
  // ZERO FlatHeap growths. One worker keeps the job-to-engine mapping
  // deterministic, so this cannot flake on worker wakeup order.
  const auto& world = testing::FannWorld::Get();
  const Workload workload = MakeSharedPWorkload(world.graph(), 0xA110Cu);

  BatchOptions options;
  options.num_threads = 1;
  options.share_distance_cache = false;  // every solve does real SSSP work
  BatchQueryEngine engine(world.Resources(), options);

  engine.Run(workload.jobs);  // warmup: heaps grow to workload size here
  const uint64_t grows_before = FlatHeapAllocStats().grows;
  for (int run = 0; run < 3; ++run) {
    const auto got = engine.Run(workload.jobs);
    ASSERT_EQ(got.size(), workload.jobs.size());
  }
  EXPECT_EQ(FlatHeapAllocStats().grows, grows_before)
      << "steady-state batches must not grow any FlatHeap";
}

TEST(BatchScheduleTest, WarmEngineRunsIneSolversWithZeroHeapGrowths) {
  // The same contract for the solvers on IncrementalNnSearch: their
  // frontiers are parked per thread and handed back in creation order,
  // so a repeat batch finds every one already grown.
  const auto& world = testing::FannWorld::Get();
  const Workload workload = MakeIneWorkload(world.graph(), 0x1AE5u);

  BatchOptions options;
  options.num_threads = 1;
  options.share_distance_cache = false;
  BatchQueryEngine engine(world.Resources(), options);

  const auto warm = engine.Run(workload.jobs);
  for (const FannResult& r : warm) ASSERT_EQ(r.status, QueryStatus::kOk);
  const uint64_t grows_before = FlatHeapAllocStats().grows;
  for (int run = 0; run < 3; ++run) {
    const auto got = engine.Run(workload.jobs);
    ASSERT_EQ(got.size(), workload.jobs.size());
  }
  EXPECT_EQ(FlatHeapAllocStats().grows, grows_before)
      << "steady-state INE batches must not grow any FlatHeap";
}

TEST(BatchScheduleTest, IneSolversAreByteIdenticalOnFourWorkers) {
  // Four workers each keep their own search numbering and parked
  // frontiers; the answers must not depend on which worker ran a job.
  const auto& world = testing::FannWorld::Get();
  const Workload workload = MakeIneWorkload(world.graph(), 0x1AE6u);

  BatchOptions reference_options;
  reference_options.num_threads = 1;
  BatchQueryEngine sequential(world.Resources(), reference_options);
  const auto reference = sequential.Run(workload.jobs);

  BatchOptions options;
  options.num_threads = 4;
  BatchQueryEngine engine(world.Resources(), options);
  for (int run = 0; run < 2; ++run) {
    const auto got = engine.Run(workload.jobs);
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].status, QueryStatus::kOk) << "job " << i;
      ExpectByteIdentical(got[i], reference[i],
                          "run " + std::to_string(run) + " job " +
                              std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace fannr
