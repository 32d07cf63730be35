#include "sp/incremental_nn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_heap.h"
#include "graph/builder.h"
#include "graph/presets.h"
#include "sp/dijkstra.h"
#include "test_util.h"

namespace fannr {
namespace {

using Hit = IncrementalNnSearch::Hit;

// Checks one search's hits, in report order, against DijkstraSssp: each
// is a distinct target at its exact distance, distances never decrease,
// and no target nearer than the last hit was skipped. `complete` also
// requires every reachable target to have been reported.
void ExpectHitsMatchDijkstra(const Graph& g, VertexId source,
                             const IndexedVertexSet& targets,
                             const std::vector<Hit>& hits, bool complete) {
  const std::vector<Weight> truth = DijkstraSssp(g, source);
  std::set<VertexId> seen;
  Weight prev = 0.0;
  for (const Hit& hit : hits) {
    ASSERT_TRUE(targets.Contains(hit.vertex)) << "source " << source;
    ASSERT_TRUE(seen.insert(hit.vertex).second) << "source " << source;
    EXPECT_EQ(hit.distance, truth[hit.vertex]) << "source " << source;
    EXPECT_GE(hit.distance, prev) << "source " << source;
    prev = hit.distance;
  }
  for (VertexId t : targets.members()) {
    if (truth[t] == kInfWeight || seen.count(t) != 0) continue;
    EXPECT_FALSE(complete) << "source " << source << " missed " << t;
    if (!hits.empty()) {
      EXPECT_GE(truth[t], hits.back().distance)
          << "source " << source << " skipped " << t;
    }
  }
}

void Drain(IncrementalNnSearch& search, std::vector<Hit>& hits) {
  while (auto hit = search.Next()) hits.push_back(*hit);
}

TEST(IncrementalNnTest, ReportsTargetsInDistanceOrder) {
  Graph g = testing::MakeRandomNetwork(400, 41);
  Rng rng(42);
  std::vector<VertexId> targets = testing::SampleVertices(g, 30, rng);
  IndexedVertexSet target_set(g.NumVertices(), targets);
  IncrementalNnSearch search(g, 7, target_set);
  Weight prev = -1.0;
  size_t count = 0;
  while (auto hit = search.Next()) {
    EXPECT_GE(hit->distance, prev);
    EXPECT_TRUE(target_set.Contains(hit->vertex));
    prev = hit->distance;
    ++count;
  }
  EXPECT_EQ(count, targets.size());
}

TEST(IncrementalNnTest, DistancesAreExact) {
  Graph g = testing::MakeRandomNetwork(300, 43);
  Rng rng(44);
  std::vector<VertexId> targets = testing::SampleVertices(g, 20, rng);
  IndexedVertexSet target_set(g.NumVertices(), targets);
  VertexId source = 11;
  auto truth = DijkstraSssp(g, source);
  IncrementalNnSearch search(g, source, target_set);
  size_t reported = 0;
  while (auto hit = search.Next()) {
    EXPECT_NEAR(hit->distance, truth[hit->vertex], 1e-9);
    ++reported;
  }
  EXPECT_EQ(reported, targets.size());
}

TEST(IncrementalNnTest, SourceInTargetsReportedFirstAtZero) {
  Graph g = testing::MakeLineGraph(5);
  IndexedVertexSet target_set(g.NumVertices(), {2, 4});
  IncrementalNnSearch search(g, 2, target_set);
  auto hit = search.Next();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->vertex, 2u);
  EXPECT_DOUBLE_EQ(hit->distance, 0.0);
  hit = search.Next();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->vertex, 4u);
  EXPECT_DOUBLE_EQ(hit->distance, 2.0);
  EXPECT_FALSE(search.Next().has_value());
}

TEST(IncrementalNnTest, PeekDoesNotConsume) {
  Graph g = testing::MakeLineGraph(6);
  IndexedVertexSet target_set(g.NumVertices(), {3, 5});
  IncrementalNnSearch search(g, 0, target_set);
  const auto* peek1 = search.Peek();
  ASSERT_NE(peek1, nullptr);
  EXPECT_EQ(peek1->vertex, 3u);
  const auto* peek2 = search.Peek();
  ASSERT_NE(peek2, nullptr);
  EXPECT_EQ(peek2->vertex, 3u);
  auto next = search.Next();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->vertex, 3u);
  const auto* peek3 = search.Peek();
  ASSERT_NE(peek3, nullptr);
  EXPECT_EQ(peek3->vertex, 5u);
}

TEST(IncrementalNnTest, PeekReturnsNullWhenExhausted) {
  Graph g = testing::MakeLineGraph(3);
  IndexedVertexSet target_set(g.NumVertices(), {1});
  IncrementalNnSearch search(g, 0, target_set);
  EXPECT_TRUE(search.Next().has_value());
  EXPECT_EQ(search.Peek(), nullptr);
  EXPECT_FALSE(search.Next().has_value());
}

TEST(IncrementalNnTest, UnreachableTargetsNeverReported) {
  GraphBuilder builder(5);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(3, 4, 1.0);
  Graph g = builder.Build();
  IndexedVertexSet target_set(g.NumVertices(), {1, 4});
  IncrementalNnSearch search(g, 0, target_set);
  auto hit = search.Next();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->vertex, 1u);
  EXPECT_FALSE(search.Next().has_value());
}

TEST(IncrementalNnTest, EmptyTargetSetExhaustsImmediately) {
  Graph g = testing::MakeLineGraph(4);
  IndexedVertexSet target_set(g.NumVertices(), {});
  IncrementalNnSearch search(g, 0, target_set);
  EXPECT_FALSE(search.Next().has_value());
}

TEST(IncrementalNnTest, ManyConcurrentSearchesStayIndependent) {
  Graph g = testing::MakeRandomNetwork(400, 51);
  Rng rng(52);
  std::vector<VertexId> targets = testing::SampleVertices(g, 40, rng);
  IndexedVertexSet target_set(g.NumVertices(), targets);
  std::vector<VertexId> sources = testing::SampleVertices(g, 8, rng);

  std::vector<IncrementalNnSearch> searches;
  searches.reserve(sources.size());
  for (VertexId s : sources) searches.emplace_back(g, s, target_set);

  // Interleave: advance round-robin, then verify each got the correct
  // first three nearest targets despite the interleaving ("switchable"
  // execution from the paper).
  std::vector<std::vector<IncrementalNnSearch::Hit>> got(sources.size());
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < searches.size(); ++i) {
      auto hit = searches[i].Next();
      ASSERT_TRUE(hit.has_value());
      got[i].push_back(*hit);
    }
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    auto truth = DijkstraSssp(g, sources[i]);
    std::vector<Weight> target_dists;
    for (VertexId t : targets) target_dists.push_back(truth[t]);
    std::sort(target_dists.begin(), target_dists.end());
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(got[i][j].distance, target_dists[j], 1e-9)
          << "source " << sources[i] << " rank " << j;
    }
  }
}

// Searches on one thread share a vertex numbering and park their
// frontiers with the thread; destroying them out of creation order must
// neither disturb the survivors nor the searches that reuse the slots.
TEST(IncrementalNnTest, NonLifoDestructionKeepsSurvivorsExact) {
  Graph g = testing::MakeRandomNetwork(400, 61);
  Rng rng(62);
  IndexedVertexSet target_set(g.NumVertices(),
                              testing::SampleVertices(g, 40, rng));
  const std::vector<VertexId> sources = testing::SampleVertices(g, 9, rng);

  std::vector<std::unique_ptr<IncrementalNnSearch>> searches;
  std::vector<std::vector<Hit>> hits(sources.size());
  auto advance = [&](size_t i, int steps) {
    for (int s = 0; s < steps && searches[i] != nullptr; ++s) {
      auto hit = searches[i]->Next();
      if (!hit.has_value()) break;
      hits[i].push_back(*hit);
    }
  };
  for (size_t i = 0; i < 6; ++i) {
    searches.push_back(
        std::make_unique<IncrementalNnSearch>(g, sources[i], target_set));
    for (size_t j = 0; j <= i; ++j) advance(j, 2);
  }
  for (size_t dead : {size_t{1}, size_t{4}, size_t{0}}) {
    searches[dead].reset();
    ExpectHitsMatchDijkstra(g, sources[dead], target_set, hits[dead],
                            /*complete=*/false);
    for (size_t j = 0; j < searches.size(); ++j) advance(j, 1);
  }
  for (size_t i = 6; i < sources.size(); ++i) {
    searches.push_back(
        std::make_unique<IncrementalNnSearch>(g, sources[i], target_set));
    for (size_t j = 0; j < searches.size(); ++j) advance(j, 3);
  }
  for (size_t i = 0; i < searches.size(); ++i) {
    if (searches[i] == nullptr) continue;
    Drain(*searches[i], hits[i]);
    ExpectHitsMatchDijkstra(g, sources[i], target_set, hits[i],
                            /*complete=*/true);
  }
}

// Moving a search (by hand, or by std::vector reallocating under it in
// mid-expansion) hands its state over whole; the moved-from search is
// exhausted, and one that is move-assigned over gives its state back.
TEST(IncrementalNnTest, MovedSearchesStayExact) {
  Graph g = testing::MakeRandomNetwork(400, 63);
  Rng rng(64);
  IndexedVertexSet target_set(g.NumVertices(),
                              testing::SampleVertices(g, 40, rng));
  const std::vector<VertexId> sources = testing::SampleVertices(g, 12, rng);

  std::map<VertexId, std::vector<Hit>> hits;  // by source
  std::vector<IncrementalNnSearch> searches;  // no reserve: reallocates
  for (VertexId s : sources) {
    searches.emplace_back(g, s, target_set);
    for (IncrementalNnSearch& search : searches) {
      if (auto hit = search.Next()) hits[search.source()].push_back(*hit);
    }
  }

  IncrementalNnSearch moved(std::move(searches[0]));
  EXPECT_EQ(searches[0].Peek(), nullptr);
  EXPECT_FALSE(searches[0].Next().has_value());
  if (auto hit = moved.Next()) hits[moved.source()].push_back(*hit);

  // searches[1] is dropped by the assignment, mid-expansion.
  const VertexId dropped = searches[1].source();
  searches[1] = std::move(searches[2]);
  EXPECT_FALSE(searches[2].Next().has_value());
  ExpectHitsMatchDijkstra(g, dropped, target_set, hits[dropped],
                          /*complete=*/false);

  Drain(moved, hits[moved.source()]);
  ExpectHitsMatchDijkstra(g, moved.source(), target_set,
                          hits[moved.source()], /*complete=*/true);
  for (size_t i = 1; i < searches.size(); ++i) {
    if (i == 2) continue;
    Drain(searches[i], hits[searches[i].source()]);
    ExpectHitsMatchDijkstra(g, searches[i].source(), target_set,
                            hits[searches[i].source()], /*complete=*/true);
  }
}

// The numbering grows to the larger graph while a search on the smaller
// one is live; searches on both interleave on one thread.
TEST(IncrementalNnTest, GraphsOfDifferentSizesShareOneThread) {
  Graph small = testing::MakeRandomNetwork(200, 65);
  Graph large = testing::MakeRandomNetwork(1500, 66);
  ASSERT_LT(small.NumVertices(), large.NumVertices());
  Rng rng(67);
  IndexedVertexSet small_targets(small.NumVertices(),
                                 testing::SampleVertices(small, 30, rng));
  IndexedVertexSet large_targets(large.NumVertices(),
                                 testing::SampleVertices(large, 60, rng));
  const VertexId s0 = testing::SampleVertices(small, 1, rng)[0];
  const VertexId s1 = testing::SampleVertices(large, 1, rng)[0];
  const VertexId s2 = testing::SampleVertices(small, 1, rng)[0];

  std::vector<Hit> h0, h1, h2;
  IncrementalNnSearch a(small, s0, small_targets);
  for (int i = 0; i < 3; ++i) h0.push_back(*a.Next());
  IncrementalNnSearch b(large, s1, large_targets);
  IncrementalNnSearch c(small, s2, small_targets);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto [search, out] : {std::pair{&a, &h0}, std::pair{&b, &h1},
                               std::pair{&c, &h2}}) {
      if (auto hit = search->Next()) {
        out->push_back(*hit);
        progressed = true;
      }
    }
  }
  ExpectHitsMatchDijkstra(small, s0, small_targets, h0, /*complete=*/true);
  ExpectHitsMatchDijkstra(large, s1, large_targets, h1, /*complete=*/true);
  ExpectHitsMatchDijkstra(small, s2, small_targets, h2, /*complete=*/true);
}

// A search that outlives hundreds of other solves on its thread keeps
// its numbering (no new epoch starts while it is live) and stays exact;
// so do the solves around it, which reuse parked frontiers.
TEST(IncrementalNnTest, LongLivedSearchSurvivesManySolves) {
  Graph g = testing::MakeRandomNetwork(400, 68);
  Rng rng(69);
  IndexedVertexSet long_targets(g.NumVertices(),
                                testing::SampleVertices(g, 150, rng));
  const VertexId long_source = testing::SampleVertices(g, 1, rng)[0];
  IncrementalNnSearch survivor(g, long_source, long_targets);
  std::vector<Hit> survivor_hits;

  for (int solve = 0; solve < 300; ++solve) {
    IndexedVertexSet targets(g.NumVertices(),
                             testing::SampleVertices(g, 12, rng));
    const std::vector<VertexId> sources = testing::SampleVertices(g, 3, rng);
    std::vector<IncrementalNnSearch> lists;
    std::vector<std::vector<Hit>> hits(sources.size());
    for (VertexId s : sources) lists.emplace_back(g, s, targets);
    for (int round = 0; round < 4; ++round) {
      for (size_t i = 0; i < lists.size(); ++i) {
        if (auto hit = lists[i].Next()) hits[i].push_back(*hit);
      }
    }
    for (size_t i = 0; i < lists.size(); ++i) {
      ExpectHitsMatchDijkstra(g, sources[i], targets, hits[i],
                              /*complete=*/false);
    }
    if (solve % 2 == 0) {
      if (auto hit = survivor.Next()) survivor_hits.push_back(*hit);
    }
  }
  Drain(survivor, survivor_hits);
  ExpectHitsMatchDijkstra(g, long_source, long_targets, survivor_hits,
                          /*complete=*/true);
}

// --- Every hit list against the Dijkstra oracle, bit for bit ------------
// A drained search must report exactly the reachable targets, in
// (distance, vertex id) order, each at DijkstraSssp's distance bit for
// bit, whichever mode Graph::bucket_shape() puts its queue in. Each test
// asserts which mode its graph is in, so both stay covered.

bool OnRing(const Graph& g) { return g.bucket_shape().ring > 0; }

void ExpectOracleHits(const Graph& g, VertexId source,
                      const IndexedVertexSet& targets,
                      const std::vector<Hit>& hits, const std::string& label) {
  const std::vector<Weight> truth = DijkstraSssp(g, source);
  std::vector<std::pair<Weight, VertexId>> want;
  for (VertexId t : targets.members()) {
    if (truth[t] != kInfWeight) want.push_back({truth[t], t});
  }
  std::sort(want.begin(), want.end());
  ASSERT_EQ(hits.size(), want.size()) << label << ", source " << source;
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].vertex, want[i].second)
        << label << ", source " << source << ", hit " << i;
    EXPECT_EQ(std::memcmp(&hits[i].distance, &want[i].first, sizeof(Weight)),
              0)
        << label << ", source " << source << ", hit " << i << ": "
        << hits[i].distance << " vs " << want[i].first;
  }
}

// Drains one search per source, all live at once (one solve), and
// checks each against the oracle.
void ExpectOracleSolve(const Graph& g, const IndexedVertexSet& targets,
                       const std::vector<VertexId>& sources,
                       const std::string& label) {
  std::vector<IncrementalNnSearch> searches;
  for (VertexId s : sources) searches.emplace_back(g, s, targets);
  for (size_t i = 0; i < sources.size(); ++i) {
    std::vector<Hit> hits;
    Drain(searches[i], hits);
    ExpectOracleHits(g, sources[i], targets, hits, label);
  }
}

std::vector<VertexId> EveryOther(const Graph& g) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.NumVertices(); v += 2) out.push_back(v);
  return out;
}

std::vector<VertexId> AllOf(const Graph& g) {
  std::vector<VertexId> out(g.NumVertices());
  for (VertexId v = 0; v < out.size(); ++v) out[v] = v;
  return out;
}

template <typename WeightFn>
Graph WeightedGrid(VertexId rows, VertexId cols, WeightFn weight) {
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

TEST(IncrementalNnOracleTest, RingSideOnTestPresetAndRandomNetworks) {
  const Graph preset = BuildPreset("TEST");
  ASSERT_TRUE(OnRing(preset));
  Rng rng(71);
  const IndexedVertexSet preset_targets(
      preset.NumVertices(), testing::SampleVertices(preset, 60, rng));
  ExpectOracleSolve(preset, preset_targets,
                    testing::SampleVertices(preset, 16, rng), "TEST");
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Graph g = testing::MakeRandomNetwork(400, seed);
    ASSERT_TRUE(OnRing(g));
    const IndexedVertexSet targets(g.NumVertices(),
                                   testing::SampleVertices(g, 40, rng));
    ExpectOracleSolve(g, targets, testing::SampleVertices(g, 12, rng),
                      "random network seed " + std::to_string(seed));
  }
}

TEST(IncrementalNnOracleTest, IntegerPlateausShareABucket) {
  Rng rng(72);
  // Unit weights: every bucket is one plateau of equal distances, and
  // the targets on it must come out by vertex id.
  const Graph ties = WeightedGrid(12, 12, [] { return 1.0; });
  // Integer weights 1..4: many equal-distance routes to each vertex.
  const Graph small_ints = WeightedGrid(12, 12, [&rng] {
    return static_cast<Weight>(1 + rng.NextIndex(4));
  });
  for (const Graph* g : {&ties, &small_ints}) {
    ASSERT_TRUE(OnRing(*g));
    const IndexedVertexSet half(g->NumVertices(), EveryOther(*g));
    const IndexedVertexSet all(g->NumVertices(), AllOf(*g));
    ExpectOracleSolve(*g, half, AllOf(*g), "plateaus, every other vertex");
    ExpectOracleSolve(*g, all, testing::SampleVertices(*g, 12, rng),
                      "plateaus, every vertex");
  }
}

TEST(IncrementalNnOracleTest, RoundedAndSubUlpSums) {
  Rng rng(73);
  // Ring side: 0.1 + 0.2 != 0.3, and weights in [2^53, 2^53 + 2^12]
  // round (half-to-even ties included) at every addition, so labels sit
  // on the rounding edges of the bucket index.
  const Weight tenths[] = {0.1, 0.2, 0.3, 0.7};
  const Graph inexact = WeightedGrid(12, 12, [&rng, &tenths] {
    return tenths[rng.NextIndex(4)];
  });
  const Graph huge = WeightedGrid(12, 12, [&rng] {
    return std::ldexp(1.0, 53) + 2.0 * static_cast<Weight>(rng.NextIndex(2048));
  });
  for (const Graph* g : {&inexact, &huge}) {
    ASSERT_TRUE(OnRing(*g));
    const IndexedVertexSet half(g->NumVertices(), EveryOther(*g));
    ExpectOracleSolve(*g, half, AllOf(*g), "rounded sums");
  }
  // Heap side: past 2^60 adding 1.0 is absorbed (one ulp is 256), so
  // whole stretches of a unit ring share one distance.
  GraphBuilder builder(40);
  builder.AddEdge(0, 1, std::ldexp(1.0, 60));
  for (VertexId v = 1; v < 39; ++v) builder.AddEdge(v, v + 1, 1.0);
  builder.AddEdge(39, 1, 3.0);
  builder.AddEdge(0, 20, std::ldexp(1.0, 60) + 512.0);
  const Graph sub_ulp = builder.Build();
  ASSERT_FALSE(OnRing(sub_ulp));
  const IndexedVertexSet all(sub_ulp.NumVertices(), AllOf(sub_ulp));
  ExpectOracleSolve(sub_ulp, all, AllOf(sub_ulp), "sub-ulp weights");
}

TEST(IncrementalNnOracleTest, HeapSideWhenTheWeightRatioIs1e12) {
  Rng rng(74);
  const Graph wide = WeightedGrid(12, 12, [&rng] {
    return std::pow(10.0, rng.NextDouble(0.0, 12.0));
  });
  ASSERT_FALSE(OnRing(wide));
  const IndexedVertexSet half(wide.NumVertices(), EveryOther(wide));
  ExpectOracleSolve(wide, half, AllOf(wide), "ratio 1e12");
}

// One thread's parked frontiers serve solves on either side of the ring
// bound as weight updates move the graph across it.
TEST(IncrementalNnOracleTest, WeightUpdatesMoveSolvesBetweenRingAndHeap) {
  Rng rng(75);
  Graph g = WeightedGrid(10, 10, [&rng] { return rng.NextDouble(1.0, 2.0); });
  const IndexedVertexSet targets(g.NumVertices(),
                                 testing::SampleVertices(g, 30, rng));
  const std::vector<VertexId> sources = testing::SampleVertices(g, 8, rng);
  const auto apply = [&g](VertexId u, VertexId v, Weight w) {
    const EdgeWeightUpdate update{u, v, w};
    ASSERT_EQ(g.ApplyWeightUpdates({&update, 1}).applied, 1u);
  };
  ASSERT_TRUE(OnRing(g));
  ExpectOracleSolve(g, targets, sources, "epoch 0 (ring)");
  apply(0, 1, 1e-9);  // lowers w_min past the ring bound
  ASSERT_FALSE(OnRing(g));
  ExpectOracleSolve(g, targets, sources, "w_min lowered (heap)");
  apply(0, 1, 1.5);  // back onto the ring
  ASSERT_TRUE(OnRing(g));
  ExpectOracleSolve(g, targets, sources, "w_min restored (ring)");
  apply(5, 6, 40.0);  // a wider ring, still below |V| slots
  ASSERT_TRUE(OnRing(g));
  ExpectOracleSolve(g, targets, sources, "w_max raised (ring)");
}

// A ring of |V| slots: a warm solve reuses the parked frontiers, whose
// slots the previous solve left non-empty only where its searches
// stopped, without growing any heap, pool or ring.
TEST(IncrementalNnOracleTest, WarmSolveOnANearlyFullRingDoesNotGrow) {
  GraphBuilder builder(64);
  for (VertexId v = 0; v + 1 < 64; ++v) builder.AddEdge(v, v + 1, 1.0);
  builder.AddEdge(0, 63, 58.0);  // ceil(58) + 3 = 61 slots -> 64 = |V|
  const Graph g = builder.Build();
  ASSERT_EQ(g.bucket_shape().ring, g.NumVertices());
  const IndexedVertexSet targets(g.NumVertices(), EveryOther(g));
  const auto solve = [&] {
    std::vector<IncrementalNnSearch> searches;
    searches.reserve(4);
    for (VertexId s : {VertexId{3}, VertexId{30}, VertexId{61}, VertexId{17}}) {
      searches.emplace_back(g, s, targets);
    }
    for (size_t i = 0; i < searches.size(); ++i) {
      for (size_t k = 0; k < 3 + 5 * i; ++k) searches[i].Next();
    }
  };
  solve();
  const uint64_t before = FlatHeapAllocStats().grows;
  for (int run = 0; run < 5; ++run) solve();
  EXPECT_EQ(FlatHeapAllocStats().grows, before);
  ExpectOracleSolve(g, targets, {3, 30, 61, 17}, "full ring");
}

}  // namespace
}  // namespace fannr
