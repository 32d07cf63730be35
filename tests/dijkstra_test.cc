#include "sp/dijkstra.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "graph/builder.h"
#include "graph/presets.h"
#include "test_util.h"
#include "testing/oracle.h"

namespace fannr {
namespace {

TEST(DijkstraTest, LineGraphDistances) {
  Graph g = testing::MakeLineGraph(5, 2.0);
  auto dist = DijkstraSssp(g, 0);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(dist[i], 2.0 * static_cast<double>(i));
  }
}

TEST(DijkstraTest, PicksShorterOfTwoRoutes) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 3, 1.0);
  builder.AddEdge(0, 2, 1.5);
  builder.AddEdge(2, 3, 1.0);
  Graph g = builder.Build();
  auto dist = DijkstraSssp(g, 0);
  EXPECT_DOUBLE_EQ(dist[3], 2.0);
}

TEST(DijkstraTest, UnreachableIsInfinite) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  Graph g = builder.Build();
  auto dist = DijkstraSssp(g, 0);
  EXPECT_EQ(dist[2], kInfWeight);
}

TEST(DijkstraTest, MatchesBellmanFordOnRandomNetworks) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Graph g = testing::MakeRandomNetwork(300, seed);
    Rng rng(seed * 1000);
    for (int trial = 0; trial < 3; ++trial) {
      VertexId s = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
      auto fast = DijkstraSssp(g, s);
      auto slow = testing::BellmanFordSssp(g, s);
      for (size_t v = 0; v < g.NumVertices(); ++v) {
        EXPECT_NEAR(fast[v], slow[v], 1e-9) << "seed " << seed << " v " << v;
      }
    }
  }
}

TEST(DijkstraTest, SsspTreeParentsFormShortestPaths) {
  Graph g = testing::MakeRandomNetwork(200, 77);
  SsspTree tree = DijkstraSsspTree(g, 0);
  EXPECT_EQ(tree.parent[0], kInvalidVertex);
  for (VertexId v = 1; v < g.NumVertices(); ++v) {
    if (tree.dist[v] == kInfWeight) continue;
    VertexId p = tree.parent[v];
    ASSERT_NE(p, kInvalidVertex);
    // parent edge weight must close the distance gap exactly.
    bool found = false;
    for (const Arc& a : g.Neighbors(p)) {
      if (a.to == v &&
          std::abs(tree.dist[p] + a.weight - tree.dist[v]) < 1e-9) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "vertex " << v;
  }
}

TEST(DijkstraSearchTest, PointToPointMatchesSssp) {
  Graph g = testing::MakeRandomNetwork(300, 5);
  DijkstraSearch search(g);
  auto dist = DijkstraSssp(g, 10);
  Rng rng(55);
  for (int i = 0; i < 20; ++i) {
    VertexId t = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    EXPECT_NEAR(search.Distance(10, t), dist[t], 1e-9);
  }
}

TEST(DijkstraSearchTest, SelfDistanceIsZero) {
  Graph g = testing::MakeLineGraph(3);
  DijkstraSearch search(g);
  EXPECT_DOUBLE_EQ(search.Distance(1, 1), 0.0);
}

TEST(DijkstraSearchTest, ReusableAcrossQueries) {
  Graph g = testing::MakeRandomNetwork(200, 9);
  DijkstraSearch search(g);
  Rng rng(99);
  for (int i = 0; i < 10; ++i) {
    VertexId s = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    VertexId t = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    auto truth = DijkstraSssp(g, s);
    EXPECT_NEAR(search.Distance(s, t), truth[t], 1e-9);
  }
}

TEST(DijkstraSearchTest, MultiTargetDistances) {
  Graph g = testing::MakeRandomNetwork(300, 13);
  DijkstraSearch search(g);
  Rng rng(131);
  VertexId s = 17;
  auto truth = DijkstraSssp(g, s);
  std::vector<VertexId> targets = testing::SampleVertices(g, 25, rng);
  auto got = search.Distances(s, targets);
  ASSERT_EQ(got.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_NEAR(got[i], truth[targets[i]], 1e-9);
  }
}

TEST(DijkstraSearchTest, MultiTargetHandlesDuplicatesAndSource) {
  Graph g = testing::MakeLineGraph(4, 1.0);
  DijkstraSearch search(g);
  std::vector<VertexId> targets{2, 2, 0, 3};
  auto got = search.Distances(0, targets);
  EXPECT_DOUBLE_EQ(got[0], 2.0);
  EXPECT_DOUBLE_EQ(got[1], 2.0);
  EXPECT_DOUBLE_EQ(got[2], 0.0);
  EXPECT_DOUBLE_EQ(got[3], 3.0);
}

TEST(DijkstraSearchTest, MultiTargetUnreachable) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  Graph g = builder.Build();
  DijkstraSearch search(g);
  auto got = search.Distances(0, {1, 2});
  EXPECT_DOUBLE_EQ(got[0], 1.0);
  EXPECT_EQ(got[1], kInfWeight);
}

// --- SsspInto against the heap reference, bit for bit -------------------
// Each test reuses ONE DijkstraSearch for every row it checks (and, for
// weight updates, across epochs), so scratch left by an earlier row or
// an earlier ring shape would show up as a mismatch.

// SsspInto's documented rule for running the bucket queue rather than
// the heap, restated from the input so each test can assert which side
// of it its graph is on.
bool RingFits(const Graph& g) {
  Weight w_min = kInfWeight;
  Weight w_max = 0.0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const Arc& a : g.Neighbors(u)) {
      w_min = std::min(w_min, a.weight);
      w_max = std::max(w_max, a.weight);
    }
  }
  if (!(w_min <= w_max)) return false;  // no arcs
  const double span = std::ceil(w_max / w_min) + 3.0;
  return span <= static_cast<double>(g.NumVertices()) &&
         std::bit_ceil(static_cast<uint64_t>(span)) <= g.NumVertices();
}

// Checks the full row and, bounded by three of the sources, the
// bounded row of every source.
void ExpectRowsBitwiseEqual(DijkstraSearch& search,
                            const std::vector<VertexId>& sources,
                            const std::string& label) {
  const std::vector<VertexId> targets = {
      sources.front(), sources[sources.size() / 2], sources.back()};
  EXPECT_EQ(testing::SsspKernelMismatches(search, sources, targets),
            std::vector<VertexId>{})
      << label << ": sources whose rows differ";
}

std::vector<VertexId> AllVertices(const Graph& g) {
  std::vector<VertexId> all(g.NumVertices());
  for (VertexId v = 0; v < all.size(); ++v) all[v] = v;
  return all;
}

// A rows x cols 4-neighbour grid whose edge weights come from `weight`.
template <typename WeightFn>
Graph MakeWeightedGrid(VertexId rows, VertexId cols, WeightFn weight) {
  GraphBuilder builder(rows * cols);
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      const VertexId v = r * cols + c;
      if (c + 1 < cols) builder.AddEdge(v, v + 1, weight());
      if (r + 1 < rows) builder.AddEdge(v, v + cols, weight());
    }
  }
  return builder.Build();
}

TEST(SsspIntoTest, BitwiseOnTestPresetAndRandomNetworks) {
  const Graph preset = BuildPreset("TEST");
  ASSERT_TRUE(RingFits(preset));
  DijkstraSearch preset_search(preset);
  Rng rng(2026);
  ExpectRowsBitwiseEqual(preset_search,
                         testing::SampleVertices(preset, 40, rng), "TEST");
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const Graph g = testing::MakeRandomNetwork(400, seed);
    DijkstraSearch search(g);
    ExpectRowsBitwiseEqual(search, testing::SampleVertices(g, 30, rng),
                           "random network seed " + std::to_string(seed));
  }
}

TEST(SsspIntoTest, BitwiseOnIntegerTiesAndInexactSums) {
  Rng rng(17);
  // Unit weights: every bucket is one plateau of equal distances.
  const Graph ties = MakeWeightedGrid(12, 12, [] { return 1.0; });
  // Integer weights 1..4: many equal-distance routes to each vertex.
  const Graph small_ints = MakeWeightedGrid(12, 12, [&rng] {
    return static_cast<Weight>(1 + rng.NextIndex(4));
  });
  // 0.1 / 0.2 / 0.3 / 0.7: sums such as 0.1 + 0.2 != 0.3 make the
  // result depend on the exact addition sequence of each path.
  const Weight tenths[] = {0.1, 0.2, 0.3, 0.7};
  const Graph inexact = MakeWeightedGrid(12, 12, [&rng, &tenths] {
    return tenths[rng.NextIndex(4)];
  });
  // Weights in [2^53, 2^53 + 2^12]: every sum exceeds 2^53 and rounds
  // (half-to-even ties included) at each addition.
  const Graph huge = MakeWeightedGrid(12, 12, [&rng] {
    return std::ldexp(1.0, 53) + 2.0 * static_cast<Weight>(rng.NextIndex(2048));
  });
  for (const Graph* g : {&ties, &small_ints, &inexact, &huge}) {
    ASSERT_TRUE(RingFits(*g));
    DijkstraSearch search(*g);
    ExpectRowsBitwiseEqual(search, AllVertices(*g), "ring grid");
  }
}

TEST(SsspIntoTest, BitwiseWhenTheWeightRatioRulesOutTheRing) {
  Rng rng(23);
  // Log-uniform weights over twelve decades: the heap side.
  const Graph wide = MakeWeightedGrid(10, 10, [&rng] {
    return std::pow(10.0, rng.NextDouble(0.0, 12.0));
  });
  ASSERT_FALSE(RingFits(wide));
  DijkstraSearch search(wide);
  ExpectRowsBitwiseEqual(search, AllVertices(wide), "ratio 1e12");
}

TEST(SsspIntoTest, BitwiseWithWeightsBelowOneUlpOfTheDistance) {
  // A heavy edge into a ring of unit edges: past 2^60, adding 1.0 is
  // absorbed (one ulp is 256), so whole stretches share one distance.
  GraphBuilder builder(40);
  builder.AddEdge(0, 1, std::ldexp(1.0, 60));
  for (VertexId v = 1; v < 39; ++v) builder.AddEdge(v, v + 1, 1.0);
  builder.AddEdge(39, 1, 3.0);
  builder.AddEdge(0, 20, std::ldexp(1.0, 60) + 512.0);
  const Graph g = builder.Build();
  ASSERT_FALSE(RingFits(g));
  DijkstraSearch search(g);
  ExpectRowsBitwiseEqual(search, AllVertices(g), "sub-ulp weights");
}

TEST(SsspIntoTest, BitwiseOnDisconnectedComponentsAndAnIsolatedVertex) {
  // Two grids side by side, never joined, plus vertex 50 with no arcs.
  GraphBuilder builder(51);
  Rng rng(5);
  for (VertexId base : {VertexId{0}, VertexId{25}}) {
    for (VertexId r = 0; r < 5; ++r) {
      for (VertexId c = 0; c < 5; ++c) {
        const VertexId v = base + r * 5 + c;
        if (c + 1 < 5) builder.AddEdge(v, v + 1, rng.NextDouble(1.0, 3.0));
        if (r + 1 < 5) builder.AddEdge(v, v + 5, rng.NextDouble(1.0, 3.0));
      }
    }
  }
  const Graph g = builder.Build();
  ASSERT_EQ(g.Degree(50), 0u);
  ASSERT_TRUE(RingFits(g));
  DijkstraSearch search(g);
  ExpectRowsBitwiseEqual(search, AllVertices(g), "two components");
  std::vector<Weight> row;
  search.SsspInto(50, row);
  for (VertexId v = 0; v < 50; ++v) EXPECT_EQ(row[v], kInfWeight);
  EXPECT_EQ(row[50], 0.0);

  // A graph with no arcs at all has no bucket width: the heap runs.
  const Graph bare = GraphBuilder(3).Build();
  DijkstraSearch bare_search(bare);
  ExpectRowsBitwiseEqual(bare_search, AllVertices(bare), "no arcs");
}

TEST(SsspIntoTest, BitwiseAcrossWeightUpdatesBetweenRingAndHeap) {
  Rng rng(41);
  Graph g = MakeWeightedGrid(8, 8, [&rng] { return rng.NextDouble(1.0, 2.0); });
  DijkstraSearch search(g);
  const std::vector<VertexId> sources = AllVertices(g);
  const auto apply = [&g](VertexId u, VertexId v, Weight w) {
    const EdgeWeightUpdate update{u, v, w};
    ASSERT_EQ(g.ApplyWeightUpdates({&update, 1}).applied, 1u);
  };
  ASSERT_TRUE(RingFits(g));
  ExpectRowsBitwiseEqual(search, sources, "epoch 0 (ring)");

  apply(0, 1, 1e-9);  // lowers w_min past the ring bound
  ASSERT_FALSE(RingFits(g));
  ExpectRowsBitwiseEqual(search, sources, "w_min lowered (heap)");

  apply(0, 1, 1.5);  // back onto the ring
  ASSERT_TRUE(RingFits(g));
  ExpectRowsBitwiseEqual(search, sources, "w_min restored (ring)");

  apply(9, 10, 1e12);  // raises w_max past the ring bound
  ASSERT_FALSE(RingFits(g));
  ExpectRowsBitwiseEqual(search, sources, "w_max raised (heap)");

  apply(9, 10, 20.0);  // a wider ring than at epoch 0, still fits
  ASSERT_TRUE(RingFits(g));
  ExpectRowsBitwiseEqual(search, sources, "w_max widened (ring)");

  apply(9, 10, 0.6);  // lowers w_min on the ring: a narrower width
  ASSERT_TRUE(RingFits(g));
  ExpectRowsBitwiseEqual(search, sources, "w_min lowered (ring)");
}

// --- The bounded SsspInto, against the heap reference ------------------
// A bounded row must serve every target, hold DijkstraSssp's bits on
// every vertex within its radius and exceed the radius everywhere else
// (testing::SsspKernelMismatches checks exactly that, next to the full
// row); these tests add the shapes that row is most likely to get wrong.

// Radius of the bounded search, checked against the reference; returns
// kInfWeight-or-not so callers can assert whether the search stopped.
Weight ExpectBoundedRowServes(DijkstraSearch& search, VertexId source,
                              const std::vector<VertexId>& targets) {
  const std::vector<Weight> want = DijkstraSssp(search.graph(), source);
  std::vector<Weight> row;
  const Weight radius = search.SsspInto(source, targets, row);
  EXPECT_EQ(row.size(), want.size());
  for (VertexId t : targets) {
    EXPECT_LE(want[t], radius) << "target " << t << " not served";
  }
  size_t wrong = 0;
  for (size_t v = 0; v < want.size() && v < row.size(); ++v) {
    const bool ok = want[v] <= radius
                        ? std::memcmp(&row[v], &want[v], sizeof(Weight)) == 0
                        : row[v] > radius;
    wrong += ok ? 0 : 1;
  }
  EXPECT_EQ(wrong, 0u) << "source " << source << ", radius " << radius;
  return radius;
}

TEST(SsspIntoBoundedTest, ServesTargetsOnTestPresetAndRandomNetworks) {
  const Graph preset = BuildPreset("TEST");
  DijkstraSearch preset_search(preset);
  Rng rng(77);
  size_t stopped_early = 0;
  for (size_t q_size : {1u, 4u, 16u}) {
    for (int i = 0; i < 12; ++i) {
      const VertexId source =
          static_cast<VertexId>(rng.NextIndex(preset.NumVertices()));
      const auto targets = testing::SampleVertices(preset, q_size, rng);
      if (ExpectBoundedRowServes(preset_search, source, targets) !=
          kInfWeight) {
        ++stopped_early;
      }
    }
  }
  // The point of the bounded form: most of these stop before the end.
  EXPECT_GT(stopped_early, 18u);
  for (uint64_t seed : {7u, 8u, 9u}) {
    const Graph g = testing::MakeRandomNetwork(400, seed);
    DijkstraSearch search(g);
    const auto sources = testing::SampleVertices(g, 20, rng);
    const auto targets = testing::SampleVertices(g, 5, rng);
    EXPECT_EQ(testing::SsspKernelMismatches(search, sources, targets),
              std::vector<VertexId>{})
        << "random network seed " << seed;
  }
}

TEST(SsspIntoBoundedTest, IntegerTiesAndSubUlpWeights) {
  // Unit weights put whole plateaus of equal distance on the radius.
  const Graph ties = MakeWeightedGrid(12, 12, [] { return 1.0; });
  ASSERT_TRUE(RingFits(ties));
  DijkstraSearch tie_search(ties);
  for (VertexId source : {0u, 66u, 143u}) {
    for (VertexId target : AllVertices(ties)) {
      ExpectBoundedRowServes(tie_search, source, {target});
    }
  }
  // Past 2^60 a unit edge is absorbed, so a target shares its distance
  // with a whole stretch of the ring (the heap side).
  GraphBuilder builder(40);
  builder.AddEdge(0, 1, std::ldexp(1.0, 60));
  for (VertexId v = 1; v < 39; ++v) builder.AddEdge(v, v + 1, 1.0);
  builder.AddEdge(39, 1, 3.0);
  builder.AddEdge(0, 20, std::ldexp(1.0, 60) + 512.0);
  const Graph sub_ulp = builder.Build();
  ASSERT_FALSE(RingFits(sub_ulp));
  DijkstraSearch sub_ulp_search(sub_ulp);
  for (VertexId source : AllVertices(sub_ulp)) {
    for (VertexId target : {0u, 1u, 5u, 20u, 39u}) {
      ExpectBoundedRowServes(sub_ulp_search, source, {target});
    }
  }
}

TEST(SsspIntoBoundedTest, DuplicateTargetsAndTheSourceAsATarget) {
  const Graph g = testing::MakeRandomNetwork(300, 31);
  DijkstraSearch search(g);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const VertexId s = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    const VertexId t = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    // The source alone settles in the first bucket: a tiny radius.
    EXPECT_LT(ExpectBoundedRowServes(search, s, {s}), kInfWeight);
    ExpectBoundedRowServes(search, s, {s, s});
    ExpectBoundedRowServes(search, s, {t, t, s, t});
  }
}

TEST(SsspIntoBoundedTest, UnreachableTargetGivesTheFullRow) {
  // Two components; vertex 30 has no arcs.
  GraphBuilder builder(31);
  Rng rng(9);
  for (VertexId v = 0; v + 1 < 15; ++v) {
    builder.AddEdge(v, v + 1, rng.NextDouble(1.0, 2.0));
    builder.AddEdge(15 + v, 16 + v, rng.NextDouble(1.0, 2.0));
  }
  const Graph g = builder.Build();
  ASSERT_TRUE(RingFits(g));
  DijkstraSearch search(g);
  for (const std::vector<VertexId>& targets :
       {std::vector<VertexId>{20}, std::vector<VertexId>{1, 30},
        std::vector<VertexId>{2, 20, 3}}) {
    std::vector<Weight> row;
    EXPECT_EQ(search.SsspInto(0, targets, row), kInfWeight);
    const std::vector<Weight> want = DijkstraSssp(g, 0);
    ASSERT_EQ(row.size(), want.size());
    EXPECT_EQ(std::memcmp(row.data(), want.data(),
                          want.size() * sizeof(Weight)),
              0);
  }
}

TEST(SsspIntoBoundedTest, HeapSideStopsEarlyAndServesTargets) {
  Rng rng(23);
  const Graph wide = MakeWeightedGrid(10, 10, [&rng] {
    return std::pow(10.0, rng.NextDouble(0.0, 12.0));
  });
  ASSERT_FALSE(RingFits(wide));
  DijkstraSearch search(wide);
  size_t stopped_early = 0;
  for (VertexId source : AllVertices(wide)) {
    const auto targets = testing::SampleVertices(wide, 3, rng);
    if (ExpectBoundedRowServes(search, source, targets) != kInfWeight) {
      ++stopped_early;
    }
  }
  EXPECT_GT(stopped_early, 50u);
}

TEST(SsspIntoBoundedTest, WeightUpdateBetweenSearchesOnOneObject) {
  // A bounded search leaves entries queued; the next search on the same
  // object, full or bounded, at the same epoch or after an update that
  // reshapes the ring or switches to the heap, must not see them.
  Rng rng(41);
  Graph g = MakeWeightedGrid(8, 8, [&rng] { return rng.NextDouble(1.0, 2.0); });
  DijkstraSearch search(g);
  const auto apply = [&g](VertexId u, VertexId v, Weight w) {
    const EdgeWeightUpdate update{u, v, w};
    ASSERT_EQ(g.ApplyWeightUpdates({&update, 1}).applied, 1u);
  };
  const auto check_epoch = [&](const std::string& label) {
    for (VertexId s : AllVertices(g)) {
      ExpectBoundedRowServes(search, s, {static_cast<VertexId>((s + 9) % 64)});
      ExpectRowsBitwiseEqual(search, {s}, label);
    }
  };
  ASSERT_TRUE(RingFits(g));
  check_epoch("epoch 0 (ring)");
  apply(0, 1, 1e-9);  // the heap
  ASSERT_FALSE(RingFits(g));
  check_epoch("w_min lowered (heap)");
  apply(0, 1, 1.5);  // back onto the ring
  check_epoch("w_min restored (ring)");
  apply(9, 10, 20.0);  // a wider ring
  ASSERT_TRUE(RingFits(g));
  check_epoch("w_max widened (ring)");
  apply(9, 10, 0.6);  // a narrower width
  check_epoch("w_min lowered (ring)");
}

// --- The best-bounded SsspInto, against the heap reference -------------
// A best-bounded row must hold the bounded row's radius property and
// may leave a target beyond its radius (be pruned) only when the
// source's g_phi, folded from the reference row, exceeds the bound.

// g_phi(source) from the reference row, folded smallest first as
// SelectAndFold folds it.
Weight ReferenceGphi(const std::vector<Weight>& want,
                     const std::vector<VertexId>& targets,
                     const GphiBound& stop) {
  std::vector<Weight> folded;
  for (size_t i = 0; i < targets.size(); ++i) {
    const Weight d = want[targets[i]];
    folded.push_back(stop.weights.empty() ? d : d * stop.weights[i]);
  }
  std::sort(folded.begin(), folded.end());
  return FoldSorted(folded.data(), stop.k, stop.aggregate);
}

// Runs the best-bounded row of `source` (whose reference row is
// `want`), checks it and returns whether it was pruned; `radius_out`
// receives its radius.
bool ExpectBestBoundedRow(DijkstraSearch& search, VertexId source,
                          const std::vector<Weight>& want,
                          const std::vector<VertexId>& targets,
                          const GphiBound& stop,
                          Weight* radius_out = nullptr) {
  std::vector<Weight> row;
  const Weight radius = search.SsspInto(source, targets, row, stop);
  if (radius_out != nullptr) *radius_out = radius;
  EXPECT_EQ(row.size(), want.size());
  size_t wrong = 0;
  for (size_t v = 0; v < want.size() && v < row.size(); ++v) {
    const bool ok = want[v] <= radius
                        ? std::memcmp(&row[v], &want[v], sizeof(Weight)) == 0
                        : row[v] > radius;
    wrong += ok ? 0 : 1;
  }
  EXPECT_EQ(wrong, 0u) << "source " << source << ", radius " << radius;
  bool pruned = false;
  for (VertexId t : targets) pruned = pruned || want[t] > radius;
  if (pruned) {
    EXPECT_TRUE(PruneBoundExceeds(ReferenceGphi(want, targets, stop),
                                  stop.bound))
        << "source " << source << " pruned at bound " << stop.bound;
  }
  return pruned;
}

TEST(SsspIntoPrunedTest, SumMaxAndWeightedOnTestPresetAndRandomNetworks) {
  const Graph preset = BuildPreset("TEST");
  const Graph net7 = testing::MakeRandomNetwork(400, 7);
  const Graph net8 = testing::MakeRandomNetwork(400, 8);
  Rng rng(91);
  for (const Graph* g : {&preset, &net7, &net8}) {
    DijkstraSearch search(*g);
    size_t rows = 0;
    size_t pruned = 0;
    for (size_t q_size : {4u, 8u, 16u}) {
      const auto targets = testing::SampleVertices(*g, q_size, rng);
      std::vector<double> weights;
      for (size_t i = 0; i < q_size; ++i) {
        weights.push_back(rng.NextDouble(0.5, 4.0));
      }
      const auto sources = testing::SampleVertices(*g, 12, rng);
      std::vector<std::vector<Weight>> wants;
      for (VertexId s : sources) wants.push_back(DijkstraSssp(*g, s));
      for (Aggregate aggregate : {Aggregate::kMax, Aggregate::kSum}) {
        for (size_t k : {size_t{1}, q_size / 2, q_size}) {
          for (bool weighted : {false, true}) {
            GphiBound stop{kInfWeight, k, aggregate, {}};
            if (weighted) stop.weights = weights;
            // The bound a GD over these sources ends with.
            for (const auto& want : wants) {
              stop.bound =
                  std::min(stop.bound, ReferenceGphi(want, targets, stop));
            }
            for (size_t i = 0; i < sources.size(); ++i) {
              pruned += ExpectBestBoundedRow(search, sources[i], wants[i],
                                             targets, stop)
                            ? 1
                            : 0;
              ++rows;
            }
          }
        }
      }
    }
    // Most sources cannot beat the best, and most of those stop early.
    EXPECT_GT(pruned, rows / 2) << g->NumVertices() << " vertices";
  }
}

TEST(SsspIntoPrunedTest, ExactTieWithTheBoundIsNotPruned) {
  // Unit weights: many sources share one g_phi, and the k nearest
  // targets are final well before the farthest, so the lower bound
  // reaches g_phi exactly while the search still runs.
  const Graph ties = MakeWeightedGrid(12, 12, [] { return 1.0; });
  ASSERT_TRUE(RingFits(ties));
  // Past 2^60 a unit edge is absorbed: plateaus on the heap side.
  GraphBuilder builder(40);
  builder.AddEdge(0, 1, std::ldexp(1.0, 60));
  for (VertexId v = 1; v < 39; ++v) builder.AddEdge(v, v + 1, 1.0);
  builder.AddEdge(39, 1, 3.0);
  builder.AddEdge(0, 20, std::ldexp(1.0, 60) + 512.0);
  const Graph sub_ulp = builder.Build();
  ASSERT_FALSE(RingFits(sub_ulp));
  const std::vector<double> weights = {1.0, 2.0, 0.5, 3.0, 1.0, 1.5};
  for (const Graph* g : {&ties, &sub_ulp}) {
    DijkstraSearch search(*g);
    const std::vector<VertexId> targets = {0, 5, 17, 23, 30, 38};
    for (VertexId source : AllVertices(*g)) {
      const std::vector<Weight> want = DijkstraSssp(*g, source);
      std::vector<Weight> bounded;
      const Weight bounded_radius = search.SsspInto(source, targets, bounded);
      for (Aggregate aggregate : {Aggregate::kMax, Aggregate::kSum}) {
        for (size_t k : {size_t{1}, size_t{3}, size_t{6}}) {
          for (bool weighted : {false, true}) {
            GphiBound stop{kInfWeight, k, aggregate, {}};
            if (weighted) stop.weights = weights;
            stop.bound = ReferenceGphi(want, targets, stop);
            Weight radius = 0.0;
            EXPECT_FALSE(ExpectBestBoundedRow(search, source, want, targets,
                                              stop, &radius))
                << "source " << source << " at its own g_phi";
            // Never pruned, so it stops where the Q-bounded row stops.
            EXPECT_EQ(std::memcmp(&radius, &bounded_radius, sizeof(Weight)),
                      0);
          }
        }
      }
    }
  }
}

TEST(SsspIntoPrunedTest, UnreachableTargetPrunesOrRunsToTheEnd) {
  // Two components; vertex 30 has no arcs.
  GraphBuilder builder(31);
  Rng rng(9);
  for (VertexId v = 0; v + 1 < 15; ++v) {
    builder.AddEdge(v, v + 1, rng.NextDouble(1.0, 2.0));
    builder.AddEdge(15 + v, 16 + v, rng.NextDouble(1.0, 2.0));
  }
  const Graph g = builder.Build();
  ASSERT_TRUE(RingFits(g));
  DijkstraSearch search(g);
  const std::vector<VertexId> targets = {2, 20, 5, 30};
  const std::vector<Weight> want = DijkstraSssp(g, 0);
  // k = 3 needs an unreachable q: g_phi is infinite, so a finite bound
  // prunes once the lower bound passes it.
  EXPECT_TRUE(ExpectBestBoundedRow(
      search, 0, want, targets, GphiBound{4.0, 3, Aggregate::kSum, {}}));
  // k = 2 at its own finite g_phi: never pruned, and with an unreachable
  // target never all final, so the search runs to the end.
  GphiBound tie{kInfWeight, 2, Aggregate::kSum, {}};
  tie.bound = ReferenceGphi(want, targets, tie);
  ASSERT_LT(tie.bound, kInfWeight);
  std::vector<Weight> row;
  EXPECT_EQ(search.SsspInto(0, targets, row, tie), kInfWeight);
  ASSERT_EQ(row.size(), want.size());
  EXPECT_EQ(
      std::memcmp(row.data(), want.data(), want.size() * sizeof(Weight)), 0);
}

TEST(SsspIntoPrunedTest, HeapSideStopsEarly) {
  Rng rng(23);
  const Graph wide = MakeWeightedGrid(10, 10, [&rng] {
    return std::pow(10.0, rng.NextDouble(0.0, 12.0));
  });
  ASSERT_FALSE(RingFits(wide));
  DijkstraSearch search(wide);
  const auto targets = testing::SampleVertices(wide, 6, rng);
  std::vector<std::vector<Weight>> wants;
  for (VertexId s : AllVertices(wide)) wants.push_back(DijkstraSssp(wide, s));
  for (Aggregate aggregate : {Aggregate::kMax, Aggregate::kSum}) {
    GphiBound stop{kInfWeight, 3, aggregate, {}};
    for (const auto& want : wants) {
      stop.bound = std::min(stop.bound, ReferenceGphi(want, targets, stop));
    }
    size_t pruned = 0;
    for (VertexId s : AllVertices(wide)) {
      pruned += ExpectBestBoundedRow(search, s, wants[s], targets, stop);
    }
    EXPECT_GT(pruned, 50u) << AggregateName(aggregate);
  }
}

TEST(SsspIntoPrunedTest, InfiniteBoundGivesTheBoundedRowBitForBit) {
  Rng rng(5);
  const Graph ring = testing::MakeRandomNetwork(300, 13);
  const Graph heap = MakeWeightedGrid(10, 10, [&rng] {
    return std::pow(10.0, rng.NextDouble(0.0, 12.0));
  });
  ASSERT_TRUE(RingFits(ring));
  ASSERT_FALSE(RingFits(heap));
  const std::vector<double> weights = {2.0, 0.5, 1.0, 3.0};
  for (const Graph* g : {&ring, &heap}) {
    DijkstraSearch search(*g);
    std::vector<Weight> bounded;
    std::vector<Weight> unpruned;
    for (int i = 0; i < 40; ++i) {
      const VertexId s = static_cast<VertexId>(rng.NextIndex(g->NumVertices()));
      const auto targets = testing::SampleVertices(*g, 4, rng);
      const Weight r = search.SsspInto(s, targets, bounded);
      const Weight r_inf = search.SsspInto(
          s, targets, unpruned,
          GphiBound{kInfWeight, 2, Aggregate::kSum, weights});
      EXPECT_EQ(std::memcmp(&r, &r_inf, sizeof(Weight)), 0);
      ASSERT_EQ(bounded.size(), unpruned.size());
      EXPECT_EQ(std::memcmp(bounded.data(), unpruned.data(),
                            bounded.size() * sizeof(Weight)),
                0)
          << "source " << s;
    }
  }
}

}  // namespace
}  // namespace fannr
