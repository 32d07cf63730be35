// Parameterized option sweeps: the indexes must stay exact under every
// supported configuration (G-tree fanout/leaf capacity, hub-label order
// sampling, CH witness limits, R-tree fanout), and the FANN_R algorithms
// must stay exact on clustered and adversarial workloads.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>

#include "fann/fannr.h"
#include "sp/ch/contraction_hierarchy.h"
#include "sp/dijkstra.h"
#include "sp/gtree/gtree.h"
#include "sp/label/hub_labels.h"
#include "spatial/rtree.h"
#include "test_util.h"
#include "workload/workload.h"

namespace fannr {
namespace {

class GTreeOptionsTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(GTreeOptionsTest, ExactUnderFanoutAndCapacity) {
  const auto [fanout, leaf_capacity] = GetParam();
  Graph g = testing::MakeRandomNetwork(350, 801);
  GTree::Options options;
  options.fanout = fanout;
  options.leaf_capacity = leaf_capacity;
  GTree tree = GTree::Build(g, options);
  DijkstraSearch dijkstra(g);
  Rng rng(802);
  for (int i = 0; i < 25; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    VertexId v = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    EXPECT_NEAR(tree.Distance(u, v), dijkstra.Distance(u, v), 1e-6)
        << "fanout=" << fanout << " tau=" << leaf_capacity;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GTreeOptionsTest,
    ::testing::Values(std::make_tuple(2u, 8u), std::make_tuple(2u, 64u),
                      std::make_tuple(4u, 8u), std::make_tuple(4u, 128u),
                      std::make_tuple(8u, 16u)),
    [](const auto& info) {
      std::string name = "f";
      name += std::to_string(std::get<0>(info.param));
      name += "_tau";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

class HubLabelOrderTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HubLabelOrderTest, ExactUnderOrderSampleCounts) {
  const size_t samples = GetParam();
  Graph g = testing::MakeRandomNetwork(300, 803);
  HubLabels::Options options;
  options.num_order_samples = samples;
  auto labels = HubLabels::Build(g, options);
  ASSERT_TRUE(labels.has_value());
  DijkstraSearch dijkstra(g);
  Rng rng(804);
  for (int i = 0; i < 20; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    VertexId v = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    EXPECT_NEAR(labels->Distance(u, v), dijkstra.Distance(u, v), 1e-9)
        << "samples=" << samples;
  }
}

INSTANTIATE_TEST_SUITE_P(SampleCounts, HubLabelOrderTest,
                         ::testing::Values(0, 1, 4, 32));

TEST(HubLabelOrderTest, MoreSamplesNeverHurtMuch) {
  // Label size with a sampled order should beat the degenerate order
  // (0 samples = arbitrary stable order).
  Graph g = testing::MakeRandomNetwork(600, 805);
  HubLabels::Options none;
  none.num_order_samples = 0;
  HubLabels::Options many;
  many.num_order_samples = 16;
  auto unordered = HubLabels::Build(g, none);
  auto ordered = HubLabels::Build(g, many);
  ASSERT_TRUE(unordered.has_value() && ordered.has_value());
  EXPECT_LT(ordered->TotalLabelEntries(),
            unordered->TotalLabelEntries());
}

class ChWitnessTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChWitnessTest, ExactUnderWitnessLimits) {
  const size_t limit = GetParam();
  Graph g = testing::MakeRandomNetwork(250, 806);
  ContractionHierarchy::Options options;
  options.witness_settle_limit = limit;
  ContractionHierarchy ch = ContractionHierarchy::Build(g, options);
  DijkstraSearch dijkstra(g);
  Rng rng(807);
  for (int i = 0; i < 20; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    VertexId v = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    EXPECT_NEAR(ch.Distance(u, v), dijkstra.Distance(u, v), 1e-6)
        << "witness limit " << limit;
  }
}

// Limit 1 inserts shortcuts aggressively (correct, just larger); large
// limits prune harder.
INSTANTIATE_TEST_SUITE_P(Limits, ChWitnessTest,
                         ::testing::Values(1, 8, 500));

class RTreeFanoutTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeFanoutTest, NnOrderingUnderFanouts) {
  const size_t fanout = GetParam();
  Rng rng(808);
  std::vector<RTree::Item> items;
  for (uint32_t i = 0; i < 300; ++i) {
    items.push_back({Point{rng.NextDouble(0.0, 500.0),
                           rng.NextDouble(0.0, 500.0)},
                     i});
  }
  RTree::Options options;
  options.max_entries = fanout;
  options.min_entries = fanout / 2;
  RTree tree = RTree::BulkLoad(items, options);
  Point query{250.0, 250.0};
  auto it = tree.NearestNeighbors(query);
  double prev = -1.0;
  size_t count = 0;
  while (auto hit = it.Next()) {
    EXPECT_GE(hit->distance, prev);
    prev = hit->distance;
    ++count;
  }
  EXPECT_EQ(count, items.size());
}

INSTANTIATE_TEST_SUITE_P(Fanouts, RTreeFanoutTest,
                         ::testing::Values(4, 8, 16, 64));

TEST(ClusteredWorkloadTest, AllAlgorithmsExactOnClusteredQ) {
  Graph g = testing::MakeRandomNetwork(500, 809);
  Rng rng(810);
  for (size_t clusters : {2u, 4u}) {
    std::vector<VertexId> p_vec = testing::SampleVertices(g, 40, rng);
    std::vector<VertexId> q_vec =
        GenerateClusteredQueryPoints(g, 0.5, 16, clusters, rng);
    IndexedVertexSet p(g.NumVertices(), p_vec);
    IndexedVertexSet q(g.NumVertices(), q_vec);
    FannQuery query{&g, &p, &q, 0.5, Aggregate::kMax};
    GphiResources resources;
    resources.graph = &g;
    auto engine = MakeGphiEngine(GphiKind::kIne, resources);
    const Weight optimal =
        testing::BruteForceFann(g, p_vec, q_vec, 0.5, Aggregate::kMax)
            .distance;
    EXPECT_NEAR(SolveGd(query, *engine).distance, optimal, 1e-6);
    EXPECT_NEAR(SolveRList(query, *engine).distance, optimal, 1e-6);
    EXPECT_NEAR(SolveExactMax(query).distance, optimal, 1e-6);
    const RTree p_tree = BuildDataPointRTree(g, p);
    EXPECT_NEAR(SolveIer(query, *engine, p_tree).distance, optimal, 1e-6);
  }
}

// Truncated index files: every prefix must fail LoadMmap under both
// validations (the section table or a section runs past the end).
constexpr ArenaValidation kValidations[] = {ArenaValidation::kHeaderOnly,
                                            ArenaValidation::kFull};

TEST(SerializeRobustnessTest, GTreeLoadRejectsTruncatedStream) {
  Graph g = testing::MakeRandomNetwork(200, 811);
  GTree::Options options;
  options.leaf_capacity = 16;
  GTree tree = GTree::Build(g, options);
  const std::string path = ::testing::TempDir() + "fannr_sweep_gtree.v3";
  ASSERT_TRUE(tree.Save(path));
  const size_t size = std::filesystem::file_size(path);
  for (size_t cut : {size - 3, size / 2, size_t{4}}) {
    std::filesystem::resize_file(path, cut);
    for (const ArenaValidation v : kValidations) {
      EXPECT_FALSE(GTree::LoadMmap(g, path, v).has_value()) << "cut " << cut;
    }
  }
}

TEST(SerializeRobustnessTest, ChLoadRejectsTruncatedStream) {
  Graph g = testing::MakeRandomNetwork(150, 812);
  ContractionHierarchy ch = ContractionHierarchy::Build(g);
  const std::string path = ::testing::TempDir() + "fannr_sweep_ch.v3";
  ASSERT_TRUE(ch.Save(path));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  for (const ArenaValidation v : kValidations) {
    EXPECT_FALSE(ContractionHierarchy::LoadMmap(g, path, v).has_value());
  }
}

}  // namespace
}  // namespace fannr
