#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/builder.h"
#include "graph/vertex_set.h"
#include "test_util.h"

namespace fannr {
namespace {

TEST(GraphBuilderTest, BuildsSimpleTriangle) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 2.0);
  builder.AddEdge(0, 2, 4.0);
  Graph g = builder.Build();
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 2u);
  EXPECT_FALSE(g.HasCoordinates());
}

TEST(GraphBuilderTest, ArcsAreSymmetricWithEqualWeights) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.5);
  builder.AddEdge(1, 2, 2.5);
  builder.AddEdge(2, 3, 3.5);
  builder.AddEdge(3, 0, 4.5);
  Graph g = builder.Build();
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const Arc& a : g.Neighbors(u)) {
      bool found_reverse = false;
      for (const Arc& back : g.Neighbors(a.to)) {
        if (back.to == u && back.weight == a.weight) {
          found_reverse = true;
          break;
        }
      }
      EXPECT_TRUE(found_reverse) << "edge " << u << "->" << a.to;
    }
  }
}

TEST(GraphBuilderTest, DropsSelfLoops) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 0, 1.0);
  builder.AddEdge(0, 1, 1.0);
  Graph g = builder.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
}

TEST(GraphBuilderTest, KeepsMinimumWeightAmongParallelEdges) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 5.0);
  builder.AddEdge(1, 0, 2.0);
  builder.AddEdge(0, 1, 9.0);
  Graph g = builder.Build();
  ASSERT_EQ(g.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(g.Neighbors(0)[0].weight, 2.0);
}

TEST(GraphBuilderTest, CoordinatesRoundTrip) {
  GraphBuilder builder;
  VertexId a = builder.AddVertex(Point{1.0, 2.0});
  VertexId b = builder.AddVertex(Point{4.0, 6.0});
  builder.AddEdge(a, b, 5.0);
  Graph g = builder.Build();
  ASSERT_TRUE(g.HasCoordinates());
  EXPECT_DOUBLE_EQ(g.Coord(a).x, 1.0);
  EXPECT_DOUBLE_EQ(g.Coord(b).y, 6.0);
  EXPECT_DOUBLE_EQ(g.EuclideanDistance(a, b), 5.0);
}

TEST(GraphTest, EuclideanConsistencyDetection) {
  GraphBuilder builder;
  VertexId a = builder.AddVertex(Point{0.0, 0.0});
  VertexId b = builder.AddVertex(Point{3.0, 4.0});
  builder.AddEdge(a, b, 5.0);  // weight == Euclidean distance
  Graph ok = builder.Build();
  EXPECT_TRUE(ok.EuclideanConsistent());

  GraphBuilder bad_builder;
  a = bad_builder.AddVertex(Point{0.0, 0.0});
  b = bad_builder.AddVertex(Point{3.0, 4.0});
  bad_builder.AddEdge(a, b, 4.0);  // weight < Euclidean distance
  Graph bad = bad_builder.Build();
  EXPECT_FALSE(bad.EuclideanConsistent());

  bad.MakeEuclideanConsistent();
  EXPECT_TRUE(bad.EuclideanConsistent());
}

TEST(GraphTest, GraphWithoutCoordinatesIsNotEuclideanConsistent) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 1.0);
  Graph g = builder.Build();
  EXPECT_FALSE(g.EuclideanConsistent());
}

TEST(GraphTest, LineGraphStructure) {
  Graph g = testing::MakeLineGraph(5, 2.0);
  EXPECT_EQ(g.NumVertices(), 5u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(2), 2u);
  EXPECT_TRUE(g.EuclideanConsistent());
}

TEST(IndexedVertexSetTest, MembershipAndIndexing) {
  IndexedVertexSet set(10, {3, 7, 1});
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Contains(7));
  EXPECT_TRUE(set.Contains(1));
  EXPECT_FALSE(set.Contains(0));
  EXPECT_FALSE(set.Contains(9));
  EXPECT_EQ(set.IndexOf(3), 0u);
  EXPECT_EQ(set.IndexOf(7), 1u);
  EXPECT_EQ(set.IndexOf(1), 2u);
  EXPECT_EQ(set.IndexOf(5), IndexedVertexSet::kNotMember);
  EXPECT_EQ(set[1], 7u);
}

TEST(IndexedVertexSetTest, EmptySet) {
  IndexedVertexSet set(4, {});
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(0));
}

// Checks every id in [0, num_vertices) against a std::unordered_map
// built from the same members.
void ExpectMatchesReference(size_t num_vertices,
                            const std::vector<VertexId>& members) {
  std::unordered_map<VertexId, uint32_t> reference;
  for (size_t i = 0; i < members.size(); ++i) {
    reference.emplace(members[i], static_cast<uint32_t>(i));
  }
  IndexedVertexSet set(num_vertices, members);
  ASSERT_EQ(set.size(), members.size());
  for (size_t i = 0; i < members.size(); ++i) EXPECT_EQ(set[i], members[i]);
  for (size_t v = 0; v < num_vertices; ++v) {
    const auto it = reference.find(static_cast<VertexId>(v));
    const uint32_t expected =
        it == reference.end() ? IndexedVertexSet::kNotMember : it->second;
    ASSERT_EQ(set.IndexOf(static_cast<VertexId>(v)), expected) << "v=" << v;
    ASSERT_EQ(set.Contains(static_cast<VertexId>(v)),
              it != reference.end())
        << "v=" << v;
  }
}

TEST(IndexedVertexSetTest, MatchesUnorderedMapOnRandomSets) {
  std::mt19937 rng(7);
  constexpr size_t kNumVertices = 5000;
  std::vector<VertexId> all(kNumVertices);
  std::iota(all.begin(), all.end(), VertexId{0});
  for (size_t size : {0u, 1u, 7u, 8u, 9u, 1000u}) {
    SCOPED_TRACE(size);
    std::shuffle(all.begin(), all.end(), rng);
    ExpectMatchesReference(
        kNumVertices, std::vector<VertexId>(all.begin(), all.begin() + size));
  }
}

TEST(IndexedVertexSetTest, MatchesUnorderedMapWhenPIsV) {
  Graph g = testing::MakeSmallGrid(12, 12);
  std::vector<VertexId> all(g.NumVertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  ExpectMatchesReference(g.NumVertices(), all);
  std::shuffle(all.begin(), all.end(), std::mt19937(3));
  ExpectMatchesReference(g.NumVertices(), all);
}

TEST(IndexedVertexSetTest, MatchesUnorderedMapOnStridedAndContiguousIds) {
  // Grid rows and arithmetic progressions: the id patterns that collide
  // most under a weak hash.
  for (VertexId stride : {2u, 64u, 256u, 1024u}) {
    SCOPED_TRACE(stride);
    std::vector<VertexId> members;
    for (VertexId i = 0; i < 1000; ++i) members.push_back(5 + i * stride);
    ExpectMatchesReference(5 + 1000 * size_t{stride}, members);
  }
  std::vector<VertexId> contiguous(1000);
  std::iota(contiguous.begin(), contiguous.end(), VertexId{3000});
  ExpectMatchesReference(5000, contiguous);
}

TEST(IndexedVertexSetTest, FootprintIsIndependentOfVertexCount) {
  // A dense |V|-entry index would need 8 GiB here.
  const size_t num_vertices = size_t{1} << 31;
  IndexedVertexSet set(num_vertices, {0, 17, 1u << 30, (1u << 31) - 1});
  EXPECT_EQ(set.size(), 4u);
  EXPECT_EQ(set.IndexOf(1u << 30), 2u);
  EXPECT_EQ(set.IndexOf((1u << 31) - 1), 3u);
  EXPECT_FALSE(set.Contains(1));
}

TEST(IndexedVertexSetTest, TryCreateReportsTheFirstFault) {
  std::string error;
  EXPECT_NE(IndexedVertexSet::TryCreate(10, {3, 7, 1}, &error), nullptr);
  EXPECT_EQ(IndexedVertexSet::TryCreate(10, {3, 12, 3, 10}, &error), nullptr);
  EXPECT_EQ(error, "vertex id 12 out of range (graph has 10 vertices)");
  EXPECT_EQ(IndexedVertexSet::TryCreate(10, {3, 7, 3}, &error), nullptr);
  EXPECT_EQ(error, "contains a duplicate vertex id");
}

TEST(IndexedVertexSetDeathTest, DuplicateMemberAborts) {
  EXPECT_DEATH(IndexedVertexSet(10, {4, 2, 4}), "duplicate vertex in set");
}

TEST(IndexedVertexSetDeathTest, OutOfRangeMemberAborts) {
  EXPECT_DEATH(IndexedVertexSet(10, {4, 10}), "out of range");
}

TEST(GraphBuilderTest, FromGraphRoundTripsAndAllowsUpdates) {
  Graph original = testing::MakeSmallGrid(6, 6);
  // Plain round trip.
  Graph copy = GraphBuilder::FromGraph(original).Build();
  EXPECT_EQ(copy.NumVertices(), original.NumVertices());
  EXPECT_EQ(copy.NumEdges(), original.NumEdges());
  ASSERT_TRUE(copy.HasCoordinates());
  EXPECT_DOUBLE_EQ(copy.Coord(5).x, original.Coord(5).x);

  // Apply an update: add a shortcut edge cheaper than any existing path.
  GraphBuilder updated_builder = GraphBuilder::FromGraph(original);
  updated_builder.AddEdge(0, static_cast<VertexId>(original.NumVertices() - 1),
                          0.5);
  Graph updated = updated_builder.Build();
  EXPECT_EQ(updated.NumEdges(), original.NumEdges() + 1);
}

// The bucket queue's shape restated from every arc: the width is the
// smallest weight, and the ring (bit_ceil(ceil(w_max / w_min) + 3)
// slots) is used only when it fits in |V| slots.
BucketShape ShapeFromArcs(const Graph& g) {
  Weight w_min = kInfWeight;
  Weight w_max = 0.0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const Arc& a : g.Neighbors(u)) {
      w_min = std::min(w_min, a.weight);
      w_max = std::max(w_max, a.weight);
    }
  }
  if (!(w_min <= w_max)) return {};  // no arcs
  const double span = std::ceil(w_max / w_min) + 3.0;
  if (span > static_cast<double>(g.NumVertices())) return {};
  const uint64_t ring = std::bit_ceil(static_cast<uint64_t>(span));
  if (ring > g.NumVertices()) return {};
  return {1.0 / w_min, ring};
}

void ExpectShapeFromArcs(const Graph& g, const std::string& label) {
  const BucketShape want = ShapeFromArcs(g);
  const BucketShape got = g.bucket_shape();
  EXPECT_EQ(got.ring, want.ring) << label;
  EXPECT_EQ(got.inv_width, want.inv_width) << label;
}

TEST(GraphTest, BucketShapeFollowsEveryWeightUpdateBatch) {
  Rng rng(12);
  GraphBuilder builder(64);
  for (VertexId v = 0; v < 64; ++v) {
    builder.AddEdge(v, (v + 1) % 64, rng.NextDouble(1.0, 4.0));
    builder.AddEdge(v, (v + 7) % 64, rng.NextDouble(1.0, 4.0));
  }
  Graph g = builder.Build();
  ASSERT_GT(g.bucket_shape().ring, 0u);
  ExpectShapeFromArcs(g, "built");
  const auto apply = [&g](std::vector<EdgeWeightUpdate> batch) {
    g.ApplyWeightUpdates(batch);
  };
  apply({{0, 1, 0.5}});
  ExpectShapeFromArcs(g, "w_min lowered");
  apply({{0, 1, 2.0}});  // the only arc at w_min is raised: a rescan
  ExpectShapeFromArcs(g, "w_min raised");
  apply({{2, 3, 30.0}, {4, 5, 0.9}});
  ExpectShapeFromArcs(g, "both ends widened");
  apply({{2, 3, 0.01}, {2, 3, 3.0}});  // set, then replaced in one batch
  ExpectShapeFromArcs(g, "an end set and replaced in one batch");
  apply({{4, 5, 2.5}, {0, 2, 0.1}});  // the second update is missing
  ExpectShapeFromArcs(g, "w_min raised beside a missing edge");
  apply({{6, 7, 1e9}});  // the ratio outgrows the ring: the heap
  EXPECT_EQ(g.bucket_shape().ring, 0u);
  ExpectShapeFromArcs(g, "heap");
  apply({{6, 7, 2.0}});
  ExpectShapeFromArcs(g, "back on the ring");
  ASSERT_GT(g.bucket_shape().ring, 0u);

  Graph moved = std::move(g);
  ExpectShapeFromArcs(moved, "moved");
  const Graph bare = GraphBuilder(3).Build();
  EXPECT_EQ(bare.bucket_shape().ring, 0u);
  EXPECT_EQ(bare.bucket_shape().inv_width, 0.0);
}

TEST(GraphTest, MemoryBytesIsPositive) {
  Graph g = testing::MakeLineGraph(10);
  EXPECT_GT(g.MemoryBytes(), 0u);
}

// --- VertexId-space bounds (32-bit truncation regressions) ---------------
// Ids are uint32_t with kInvalidVertex reserved as a sentinel. A count
// past that range used to narrow silently in AddVertex's cast, aliasing
// distinct vertices; the builder now aborts at the point of overflow.
// Resize does not allocate, so declaring the full id space is cheap and
// these death tests run in microseconds.

TEST(GraphBuilderDeathTest, ResizeRejectsCountsPastVertexIdSpace) {
  GraphBuilder builder;
  EXPECT_DEATH(builder.Resize(static_cast<size_t>(kInvalidVertex) + 1), "");
}

TEST(GraphBuilderDeathTest, AddVertexRejectsMintingTheSentinelId) {
  GraphBuilder builder;
  builder.Resize(static_cast<size_t>(kInvalidVertex));
  // The next vertex would receive id kInvalidVertex ("no vertex").
  EXPECT_DEATH(builder.AddVertex(), "");
}

}  // namespace
}  // namespace fannr
