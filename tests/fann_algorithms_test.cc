// Cross-agreement property tests: every exact FANN_R algorithm, under
// every g_phi engine, must return the same optimal flexible aggregate
// distance as the brute-force reference — the headline correctness
// property of the library.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>

#include "engine/cached_sssp.h"
#include "fann/fannr.h"
#include "fann_world.h"
#include "sp/dijkstra.h"
#include "test_util.h"

namespace fannr {
namespace {

struct Instance {
  std::vector<VertexId> p_vec;
  std::vector<VertexId> q_vec;
  IndexedVertexSet p;
  IndexedVertexSet q;
  Weight optimal;

  Instance(const Graph& graph, std::vector<VertexId> ps,
           std::vector<VertexId> qs, double phi, Aggregate aggregate)
      : p_vec(std::move(ps)),
        q_vec(std::move(qs)),
        p(graph.NumVertices(), p_vec),
        q(graph.NumVertices(), q_vec),
        optimal(testing::BruteForceFann(graph, p_vec, q_vec, phi, aggregate)
                    .distance) {}
};

// Checks that a result is optimal and internally consistent: the reported
// subset is k distinct members of Q whose fold from the reported point
// equals the reported distance.
void CheckResult(const Graph& graph, const FannQuery& query,
                 const FannResult& result, Weight optimal,
                 const std::string& label) {
  ASSERT_NE(result.best, kInvalidVertex) << label;
  EXPECT_NEAR(result.distance, optimal, 1e-6) << label;
  EXPECT_TRUE(query.data_points->Contains(result.best)) << label;
  const size_t k = query.FlexSubsetSize();
  ASSERT_EQ(result.subset.size(), k) << label;
  std::vector<Weight> dists;
  auto truth = DijkstraSssp(graph, result.best);
  for (VertexId v : result.subset) {
    EXPECT_TRUE(query.query_points->Contains(v)) << label;
    dists.push_back(truth[v]);
  }
  std::sort(dists.begin(), dists.end());
  EXPECT_NEAR(FoldSorted(dists.data(), k, query.aggregate), result.distance,
              1e-6)
      << label;
}

class ExactAlgorithmsTest
    : public ::testing::TestWithParam<std::tuple<Aggregate, double>> {};

TEST_P(ExactAlgorithmsTest, AllAgreeWithBruteForce) {
  const auto [aggregate, phi] = GetParam();
  const auto& world = testing::FannWorld::Get();
  const Graph& graph = world.graph();

  Rng rng(static_cast<uint64_t>(aggregate) * 977 +
          static_cast<uint64_t>(phi * 1000));
  for (int trial = 0; trial < 2; ++trial) {
    Instance inst(graph, testing::SampleVertices(graph, 40, rng),
                  testing::SampleVertices(graph, 16, rng), phi, aggregate);
    FannQuery query{&graph, &inst.p, &inst.q, phi, aggregate};
    const RTree p_tree = BuildDataPointRTree(graph, inst.p);

    for (GphiKind kind : kAllGphiKinds) {
      auto engine = MakeGphiEngine(kind, world.Resources());
      const std::string label(GphiKindName(kind));
      CheckResult(graph, query, SolveGd(query, *engine), inst.optimal,
                  "GD-" + label);
      CheckResult(graph, query, SolveRList(query, *engine), inst.optimal,
                  "RList-" + label);
      CheckResult(graph, query, SolveIer(query, *engine, p_tree),
                  inst.optimal, "IER-" + label);
    }
    if (aggregate == Aggregate::kMax) {
      CheckResult(graph, query, SolveExactMax(query), inst.optimal,
                  "Exact-max");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactAlgorithmsTest,
    ::testing::Combine(::testing::Values(Aggregate::kMax, Aggregate::kSum),
                       ::testing::Values(0.1, 0.5, 1.0)),
    [](const auto& info) {
      return std::string(AggregateName(std::get<0>(info.param))) + "_phi" +
             std::to_string(
                 static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(NaiveTest, AgreesWithGdOnTinyInstances) {
  const auto& world = testing::FannWorld::Get();
  const Graph& graph = world.graph();
  auto engine = MakeGphiEngine(GphiKind::kIne, world.Resources());
  Rng rng(4242);
  for (double phi : {0.25, 0.5, 1.0}) {
    for (Aggregate aggregate : {Aggregate::kMax, Aggregate::kSum}) {
      Instance inst(graph, testing::SampleVertices(graph, 15, rng),
                    testing::SampleVertices(graph, 8, rng), phi, aggregate);
      FannQuery query{&graph, &inst.p, &inst.q, phi, aggregate};
      FannResult naive = SolveNaive(query);
      FannResult gd = SolveGd(query, *engine);
      EXPECT_NEAR(naive.distance, gd.distance, 1e-9)
          << AggregateName(aggregate) << " phi=" << phi;
      EXPECT_NEAR(naive.distance, inst.optimal, 1e-9);
    }
  }
}

TEST(FannEdgeCaseTest, SingleQueryPoint) {
  const auto& world = testing::FannWorld::Get();
  const Graph& graph = world.graph();
  auto engine = MakeGphiEngine(GphiKind::kIne, world.Resources());
  Rng rng(11);
  Instance inst(graph, testing::SampleVertices(graph, 20, rng), {17}, 1.0,
                Aggregate::kMax);
  FannQuery query{&graph, &inst.p, &inst.q, 1.0, Aggregate::kMax};
  // FANN_R with |Q| = 1 is a plain NN query from q over P.
  FannResult r = SolveExactMax(query);
  CheckResult(graph, query, r, inst.optimal, "single-q");
}

TEST(FannEdgeCaseTest, DataPointOnQueryPoint) {
  const auto& world = testing::FannWorld::Get();
  const Graph& graph = world.graph();
  auto engine = MakeGphiEngine(GphiKind::kIne, world.Resources());
  // P contains a query point; with phi small enough the answer is that
  // point at distance 0.
  IndexedVertexSet p(graph.NumVertices(), {100, 200});
  IndexedVertexSet q(graph.NumVertices(), {200, 300, 400, 500});
  FannQuery query{&graph, &p, &q, 0.25, Aggregate::kSum};
  FannResult r = SolveGd(query, *engine);
  EXPECT_EQ(r.best, 200u);
  EXPECT_DOUBLE_EQ(r.distance, 0.0);
}

TEST(FannEdgeCaseTest, PEqualsQ) {
  const auto& world = testing::FannWorld::Get();
  const Graph& graph = world.graph();
  auto engine = MakeGphiEngine(GphiKind::kPhl, world.Resources());
  Rng rng(13);
  std::vector<VertexId> members = testing::SampleVertices(graph, 12, rng);
  Instance inst(graph, members, members, 0.5, Aggregate::kSum);
  FannQuery query{&graph, &inst.p, &inst.q, 0.5, Aggregate::kSum};
  FannResult r = SolveRList(query, *engine);
  CheckResult(graph, query, r, inst.optimal, "P==Q");
}

TEST(FannEdgeCaseTest, EntirePAsVertexSet) {
  // P = V (density 1 in the paper's Fig. 3/4 sweeps).
  Graph graph = testing::MakeRandomNetwork(150, 0xBEEF);
  std::vector<VertexId> all(graph.NumVertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  Rng rng(17);
  IndexedVertexSet p(graph.NumVertices(), all);
  std::vector<VertexId> q_vec = testing::SampleVertices(graph, 10, rng);
  IndexedVertexSet q(graph.NumVertices(), q_vec);
  FannQuery query{&graph, &p, &q, 0.5, Aggregate::kMax};
  GphiResources resources;
  resources.graph = &graph;
  auto engine = MakeGphiEngine(GphiKind::kIne, resources);
  FannResult gd = SolveGd(query, *engine);
  FannResult em = SolveExactMax(query);
  EXPECT_NEAR(gd.distance, em.distance, 1e-9);
  auto brute = testing::BruteForceFann(graph, all, q_vec, 0.5,
                                       Aggregate::kMax);
  EXPECT_NEAR(gd.distance, brute.distance, 1e-9);
}

TEST(RListTest, ThresholdAblationAgreesAndPrunes) {
  const auto& world = testing::FannWorld::Get();
  const Graph& graph = world.graph();
  auto engine = MakeGphiEngine(GphiKind::kPhl, world.Resources());
  Rng rng(19);
  Instance inst(graph, testing::SampleVertices(graph, 60, rng),
                testing::SampleVertices(graph, 12, rng), 0.5,
                Aggregate::kSum);
  FannQuery query{&graph, &inst.p, &inst.q, 0.5, Aggregate::kSum};
  RListOptions no_threshold;
  no_threshold.use_threshold = false;
  FannResult with = SolveRList(query, *engine);
  FannResult without = SolveRList(query, *engine, no_threshold);
  EXPECT_NEAR(with.distance, without.distance, 1e-9);
  // The threshold must never evaluate more points, and without it every
  // data point gets evaluated.
  EXPECT_LE(with.gphi_evaluations, without.gphi_evaluations);
  EXPECT_EQ(without.gphi_evaluations, inst.p.size());
}

TEST(IerTest, CheapBoundAgreesWithFlexibleBound) {
  const auto& world = testing::FannWorld::Get();
  const Graph& graph = world.graph();
  auto engine = MakeGphiEngine(GphiKind::kIne, world.Resources());
  Rng rng(23);
  for (Aggregate aggregate : {Aggregate::kMax, Aggregate::kSum}) {
    Instance inst(graph, testing::SampleVertices(graph, 50, rng),
                  testing::SampleVertices(graph, 10, rng), 0.5, aggregate);
    FannQuery query{&graph, &inst.p, &inst.q, 0.5, aggregate};
    const RTree p_tree = BuildDataPointRTree(graph, inst.p);
    IerOptions cheap;
    cheap.bound = IerBound::kQMbrCheap;
    FannResult flexible = SolveIer(query, *engine, p_tree);
    FannResult cheap_result = SolveIer(query, *engine, p_tree, cheap);
    EXPECT_NEAR(flexible.distance, cheap_result.distance, 1e-9);
    EXPECT_NEAR(flexible.distance, inst.optimal, 1e-6);
    // The tighter bound should not evaluate more candidates.
    EXPECT_LE(flexible.gphi_evaluations, cheap_result.gphi_evaluations);
  }
}

TEST(IerTest, PrunesComparedToGd) {
  const auto& world = testing::FannWorld::Get();
  const Graph& graph = world.graph();
  auto engine = MakeGphiEngine(GphiKind::kPhl, world.Resources());
  Rng rng(29);
  // Clustered Q far from most of P: IER should prune hard.
  Instance inst(graph, testing::SampleVertices(graph, 120, rng),
                GenerateClusteredQueryPoints(graph, 0.2, 12, 1, rng), 0.5,
                Aggregate::kSum);
  FannQuery query{&graph, &inst.p, &inst.q, 0.5, Aggregate::kSum};
  const RTree p_tree = BuildDataPointRTree(graph, inst.p);
  FannResult ier = SolveIer(query, *engine, p_tree);
  EXPECT_NEAR(ier.distance, inst.optimal, 1e-6);
  EXPECT_LT(ier.gphi_evaluations, inst.p.size());
}

TEST(ExactMaxTest, RejectsNoDataPointReachable) {
  // Disconnected: Q in one component, P in another.
  GraphBuilder builder;
  builder.AddVertex(Point{0.0, 0.0});
  builder.AddVertex(Point{1.0, 0.0});
  builder.AddVertex(Point{10.0, 0.0});
  builder.AddVertex(Point{11.0, 0.0});
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(2, 3, 1.0);
  Graph g = builder.Build();
  IndexedVertexSet p(g.NumVertices(), {0});
  IndexedVertexSet q(g.NumVertices(), {2, 3});
  FannQuery query{&g, &p, &q, 1.0, Aggregate::kMax};
  FannResult r = SolveExactMax(query);
  EXPECT_EQ(r.best, kInvalidVertex);
  EXPECT_EQ(r.distance, kInfWeight);
}

// ---- Best-bounded g_phi evaluation ---------------------------------------

// Forwards everything but EvaluateBounded, which then falls back to the
// default (an unbounded Evaluate): the solvers without bounds.
class WithoutBounds : public GphiEngine {
 public:
  explicit WithoutBounds(GphiEngine& inner) : inner_(inner) {}
  void Prepare(const IndexedVertexSet& q) override { inner_.Prepare(q); }
  bool BindWeights(std::span<const double> w) override {
    return inner_.BindWeights(w);
  }
  GphiResult Evaluate(VertexId p, size_t k, Aggregate aggregate) override {
    return inner_.Evaluate(p, k, aggregate);
  }
  std::string_view name() const override { return inner_.name(); }

 private:
  GphiEngine& inner_;
};

bool SameBitsAndCount(const FannResult& a, const FannResult& b) {
  return a.best == b.best &&
         std::memcmp(&a.distance, &b.distance, sizeof(Weight)) == 0 &&
         a.subset == b.subset && a.gphi_evaluations == b.gphi_evaluations;
}

bool SameEntries(const std::vector<KFannEntry>& a,
                 const std::vector<KFannEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].vertex != b[i].vertex || a[i].subset != b[i].subset ||
        std::memcmp(&a[i].distance, &b[i].distance, sizeof(Weight)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(BestBoundedTest, SolversAnswerTheSameWithAndWithoutBounds) {
  const auto& world = testing::FannWorld::Get();
  // A uniform line: P symmetric about Q, so g_phi ties abound.
  const Graph line = testing::MakeLineGraph(61, 1.0);
  Rng rng(404);
  struct Case {
    const Graph* graph;
    std::vector<VertexId> p;
    std::vector<VertexId> q;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 3; ++i) {
    cases.push_back({&world.graph(),
                     testing::SampleVertices(world.graph(), 60, rng),
                     testing::SampleVertices(world.graph(), 8, rng)});
  }
  std::vector<VertexId> line_p;
  for (VertexId v = 0; v < 61; ++v) {
    if (v != 20 && v != 40) line_p.push_back(v);
  }
  cases.push_back({&line, line_p, {20, 40}});

  size_t pruned_rows = 0;
  for (const Case& c : cases) {
    const Graph& g = *c.graph;
    const IndexedVertexSet p(g.NumVertices(), c.p);
    const IndexedVertexSet q(g.NumVertices(), c.q);
    const RTree p_tree = BuildDataPointRTree(g, p);
    std::vector<double> weights;
    for (size_t i = 0; i < c.q.size(); ++i) {
      weights.push_back(rng.NextDouble(0.5, 3.0));
    }
    // A one-entry cache bounds every miss after the first; no cache
    // bounds them all.
    auto cache = std::make_shared<SourceDistanceCache>(1, 1, 1);
    CachedSsspEngine cached(g, cache);
    CachedSsspEngine uncached(g, nullptr);
    for (GphiEngine* engine : {static_cast<GphiEngine*>(&cached),
                               static_cast<GphiEngine*>(&uncached)}) {
      WithoutBounds plain(*engine);
      for (Aggregate aggregate : {Aggregate::kMax, Aggregate::kSum}) {
        for (double phi : {0.25, 0.5, 1.0}) {
          FannQuery query{&g, &p, &q, phi, aggregate};
          const std::string label =
              std::string(AggregateName(aggregate)) + " phi " +
              std::to_string(phi) + " |V| " + std::to_string(g.NumVertices());
          EXPECT_TRUE(SameBitsAndCount(SolveGd(query, *engine),
                                       SolveGd(query, plain)))
              << "GD " << label;
          EXPECT_TRUE(SameBitsAndCount(SolveRList(query, *engine),
                                       SolveRList(query, plain)))
              << "R-List " << label;
          EXPECT_TRUE(SameBitsAndCount(SolveIer(query, *engine, p_tree),
                                       SolveIer(query, plain, p_tree)))
              << "IER " << label;
          if (aggregate == Aggregate::kSum) {
            EXPECT_TRUE(SameBitsAndCount(SolveApxSum(query, *engine),
                                         SolveApxSum(query, plain)))
                << "APX-sum " << label;
          }
          EXPECT_TRUE(SameEntries(SolveKGd(query, 3, *engine),
                                  SolveKGd(query, 3, plain)))
              << "k-GD " << label;
          EXPECT_TRUE(SameEntries(SolveKRList(query, 3, *engine),
                                  SolveKRList(query, 3, plain)))
              << "k-R-List " << label;
          EXPECT_TRUE(SameEntries(SolveKIer(query, 3, *engine, p_tree),
                                  SolveKIer(query, 3, plain, p_tree)))
              << "k-IER " << label;
          query.weights = &weights;
          EXPECT_TRUE(SameBitsAndCount(SolveGd(query, *engine),
                                       SolveGd(query, plain)))
              << "weighted GD " << label;
          EXPECT_TRUE(SameBitsAndCount(SolveRList(query, *engine),
                                       SolveRList(query, plain)))
              << "weighted R-List " << label;
          EXPECT_TRUE(SameEntries(SolveKGd(query, 3, *engine),
                                  SolveKGd(query, 3, plain)))
              << "weighted k-GD " << label;
        }
      }
    }
    pruned_rows += cache->stats().pruned_rows;
  }
  // The bounds were live: rows did stop on them.
  EXPECT_GT(pruned_rows, 100u);
}

}  // namespace
}  // namespace fannr
