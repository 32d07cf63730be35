#include "fann/ier.h"

#include <algorithm>

#include "common/flat_heap.h"

namespace fannr {

namespace {

Weight FoldKSmallest(std::vector<Weight>& scratch, size_t k,
                     Aggregate aggregate) {
  FANNR_DCHECK(k > 0 && k <= scratch.size());
  std::nth_element(scratch.begin(), scratch.begin() + (k - 1),
                   scratch.end());
  if (aggregate == Aggregate::kMax) return scratch[k - 1];
  Weight total = 0.0;
  for (size_t i = 0; i < k; ++i) total += scratch[i];
  return total;
}

}  // namespace

Weight EuclidGphiBound(const std::vector<Point>& q_points, const Mbr& box,
                       size_t k, Aggregate aggregate) {
  std::vector<Weight> dists;
  dists.reserve(q_points.size());
  for (const Point& q : q_points) dists.push_back(MinDist(box, q));
  return FoldKSmallest(dists, k, aggregate);
}

Weight EuclidGphiPoint(const std::vector<Point>& q_points, const Point& p,
                       size_t k, Aggregate aggregate) {
  std::vector<Weight> dists;
  dists.reserve(q_points.size());
  for (const Point& q : q_points) dists.push_back(EuclideanDistance(p, q));
  return FoldKSmallest(dists, k, aggregate);
}

RTree BuildDataPointRTree(const Graph& graph,
                          const IndexedVertexSet& data_points) {
  FANNR_CHECK(graph.HasCoordinates());
  std::vector<RTree::Item> items;
  items.reserve(data_points.size());
  for (VertexId p : data_points.members()) {
    items.push_back({graph.Coord(p), p});
  }
  return RTree::BulkLoad(std::move(items));
}

FannResult SolveIer(const FannQuery& query, GphiEngine& engine,
                    const RTree& p_tree) {
  return SolveIer(query, engine, p_tree, IerOptions{});
}

FannResult SolveIer(const FannQuery& query, GphiEngine& engine,
                    const RTree& p_tree, const IerOptions& options) {
  ValidateQuery(query);
  FANNR_CHECK(!query.Weighted() &&
              "IER-kNN prunes by raw Euclidean bounds and cannot honor "
              "per-query-point weights");
  FANNR_CHECK(query.graph->HasCoordinates());
  FANNR_CHECK(query.graph->EuclideanConsistent());
  FANNR_CHECK(p_tree.size() == query.data_points->size());
  const size_t k = query.FlexSubsetSize();
  engine.Prepare(*query.query_points);

  std::vector<Point> q_points;
  q_points.reserve(query.query_points->size());
  for (VertexId q : query.query_points->members()) {
    q_points.push_back(query.graph->Coord(q));
  }
  Mbr q_mbr;
  for (const Point& q : q_points) q_mbr.Extend(q);

  const double sum_factor =
      query.aggregate == Aggregate::kSum ? static_cast<double>(k) : 1.0;
  auto bound_of_mbr = [&](const Mbr& box) {
    if (options.bound == IerBound::kFlexibleEuclid) {
      return EuclidGphiBound(q_points, box, k, query.aggregate);
    }
    return sum_factor * MinDist(q_mbr, box);
  };
  auto bound_of_point = [&](const Point& p) {
    if (options.bound == IerBound::kFlexibleEuclid) {
      return EuclidGphiPoint(q_points, p, k, query.aggregate);
    }
    return sum_factor * MinDist(q_mbr, p);
  };

  struct Entry {
    Weight bound;
    bool is_point;
    RTree::NodeId node;
    VertexId vertex;
  };
  struct BoundLess {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.bound < b.bound;
    }
  };
  FlatHeap<Entry, BoundLess> heap;
  heap.push({bound_of_mbr(p_tree.NodeMbr(p_tree.Root())), false,
             p_tree.Root(), kInvalidVertex});

  FannResult best;
  while (!heap.empty()) {
    const Entry top = heap.top();
    // Lemma 1 termination, margined and strict: an entry whose lower
    // bound equals (or sits within FP noise of) best.distance may hold
    // an equal-distance candidate that wins the vertex-id tie-break.
    if (PruneBoundExceeds(top.bound, best.distance)) break;
    heap.pop();
    if (top.is_point) {
      GphiResult r = engine.EvaluateBounded(top.vertex, k, query.aggregate,
                                            best.distance);
      ++best.gphi_evaluations;
      if (r.distance < best.distance ||
          (r.distance != kInfWeight && r.distance == best.distance &&
           top.vertex < best.best)) {
        best.best = top.vertex;
        best.distance = r.distance;
        best.subset = std::move(r.subset);
      }
    } else if (p_tree.IsLeaf(top.node)) {
      for (const RTree::Item& item : p_tree.Items(top.node)) {
        heap.push({bound_of_point(item.point), true, 0, item.id});
      }
    } else {
      for (const RTree::Child& child : p_tree.Children(top.node)) {
        heap.push({bound_of_mbr(child.mbr), false, child.node,
                   kInvalidVertex});
      }
    }
  }
  return best;
}

}  // namespace fannr
