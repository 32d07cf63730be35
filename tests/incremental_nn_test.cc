#include "sp/incremental_nn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "graph/builder.h"
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

}  // namespace
}  // namespace fannr
