#include "sp/astar.h"

#include <gtest/gtest.h>

#include "sp/dijkstra.h"
#include "test_util.h"

namespace fannr {
namespace {

TEST(AStarTest, MatchesDijkstraOnRandomNetworks) {
  for (uint64_t seed : {11u, 12u}) {
    Graph g = testing::MakeRandomNetwork(400, seed);
    ASSERT_TRUE(g.EuclideanConsistent());
    AStarSearch astar(g);
    DijkstraSearch dijkstra(g);
    Rng rng(seed);
    for (int i = 0; i < 25; ++i) {
      VertexId s = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
      VertexId t = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
      EXPECT_NEAR(astar.Distance(s, t), dijkstra.Distance(s, t), 1e-6)
          << "seed " << seed << " pair " << s << "->" << t;
    }
  }
}

TEST(AStarTest, SelfDistanceZero) {
  Graph g = testing::MakeSmallGrid(5, 5);
  AStarSearch astar(g);
  EXPECT_DOUBLE_EQ(astar.Distance(3, 3), 0.0);
}

TEST(AStarTest, SettlesNoMoreThanDijkstraTypically) {
  Graph g = testing::MakeRandomNetwork(900, 21);
  AStarSearch astar(g);
  Rng rng(22);
  size_t total_settled = 0;
  int trials = 20;
  for (int i = 0; i < trials; ++i) {
    VertexId s = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    VertexId t = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    astar.Distance(s, t);
    total_settled += astar.last_settled_count();
  }
  // The goal-directed search should on average settle well under the whole
  // graph per query.
  EXPECT_LT(total_settled, trials * g.NumVertices());
}

}  // namespace
}  // namespace fannr
