#include "fann/kfann.h"

#include <algorithm>

#include "common/flat_heap.h"
#include "fann/ier.h"
#include "sp/incremental_nn.h"

namespace fannr {

namespace {

// Bounded collector of the k best candidates (max-heap by (distance,
// vertex id)). All ordering is by the canonical total order — distance
// first, vertex id as the tie-break — so the collected set and its
// Sorted() order are independent of offer order and identical across
// solvers (tests/corpus_replay_test.cc and the differential harness rely
// on this).
class TopK {
 public:
  explicit TopK(size_t capacity) : capacity_(capacity) {}

  /// Distance a new candidate must beat (the k-th best so far). A
  /// candidate AT this distance may still enter on the vertex-id
  /// tie-break, so termination tests against this bound must be strict
  /// (prune only when a lower bound exceeds it).
  Weight WorstBound() const {
    return heap_.size() < capacity_ ? kInfWeight : heap_.top().distance;
  }

  void Offer(KFannEntry entry) {
    if (heap_.size() < capacity_) {
      heap_.push(std::move(entry));
      return;
    }
    if (!Less(entry, heap_.top())) return;
    heap_.pop();
    heap_.push(std::move(entry));
  }

  /// Extracts the entries sorted ascending by (distance, vertex id).
  std::vector<KFannEntry> Sorted() && {
    std::vector<KFannEntry> result;
    result.reserve(heap_.size());
    while (!heap_.empty()) {
      result.push_back(heap_.top());
      heap_.pop();
    }
    std::reverse(result.begin(), result.end());
    return result;
  }

 private:
  static bool Less(const KFannEntry& a, const KFannEntry& b) {
    return a.distance != b.distance ? a.distance < b.distance
                                    : a.vertex < b.vertex;
  }
  // FlatHeap is a min-heap on its comparator; inverting the canonical
  // order puts the WORST collected entry at top(), i.e. a max-heap.
  struct ByDistanceThenIdInverted {
    bool operator()(const KFannEntry& a, const KFannEntry& b) const {
      return Less(b, a);
    }
  };
  size_t capacity_;
  FlatHeap<KFannEntry, ByDistanceThenIdInverted> heap_;
};

}  // namespace

std::vector<KFannEntry> SolveKGd(const FannQuery& query, size_t k_results,
                                 GphiEngine& engine) {
  ValidateQuery(query);
  FANNR_CHECK(k_results > 0);
  const size_t k = query.FlexSubsetSize();
  engine.Prepare(*query.query_points);
  FANNR_CHECK(engine.BindWeights(query.WeightsSpan()) &&
              "engine cannot honor per-query-point weights");
  TopK top(k_results);
  for (VertexId p : query.data_points->members()) {
    GphiResult r =
        engine.EvaluateBounded(p, k, query.aggregate, top.WorstBound());
    if (r.distance == kInfWeight) continue;
    top.Offer({p, r.distance, std::move(r.subset)});
  }
  return std::move(top).Sorted();
}

std::vector<KFannEntry> SolveKRList(const FannQuery& query,
                                    size_t k_results, GphiEngine& engine) {
  ValidateQuery(query);
  FANNR_CHECK(k_results > 0);
  const size_t k = query.FlexSubsetSize();
  engine.Prepare(*query.query_points);
  FANNR_CHECK(engine.BindWeights(query.WeightsSpan()) &&
              "engine cannot honor per-query-point weights");
  const std::span<const double> weights = query.WeightsSpan();

  std::vector<IncrementalNnSearch> lists;
  lists.reserve(query.query_points->size());
  for (VertexId q : query.query_points->members()) {
    lists.emplace_back(*query.graph, q, *query.data_points);
  }

  std::vector<bool> evaluated(query.data_points->size(), false);
  std::vector<Weight> heads(lists.size());
  std::vector<Weight> scratch(lists.size());
  TopK top(k_results);

  while (true) {
    size_t min_list = lists.size();
    Weight min_head = kInfWeight;
    for (size_t i = 0; i < lists.size(); ++i) {
      const auto* head = lists[i].Peek();
      heads[i] = head == nullptr ? kInfWeight : head->distance;
      // Weighted heads bound weighted g_phi terms exactly as in
      // SolveRList: w_i * d(q_i, p) >= w_i * head_i for unseen p.
      if (!weights.empty() && heads[i] != kInfWeight) {
        heads[i] *= weights[i];
      }
      if (heads[i] < min_head) {
        min_head = heads[i];
        min_list = i;
      }
    }
    if (min_list == lists.size()) break;

    // Threshold vs the k-th best candidate (Section V). The fold of the
    // k smallest heads lower-bounds g_phi of every point not yet popped
    // from any list: an exhausted list (head = +inf) cannot reach any
    // unpopped point, so folding +inf is sound. In particular, when
    // fewer than k lists still have finite heads — e.g. Q spans several
    // connected components — the threshold is +inf and no unevaluated
    // point can have finite g_phi: stopping is exact, not a heuristic.
    scratch = heads;
    std::nth_element(scratch.begin(), scratch.begin() + (k - 1),
                     scratch.end());
    Weight threshold;
    if (query.aggregate == Aggregate::kMax) {
      threshold = scratch[k - 1];
    } else {
      threshold = 0.0;
      for (size_t i = 0; i < k; ++i) threshold += scratch[i];
    }
    if (threshold == kInfWeight) break;
    // Margined and strict: a candidate at (or within FP noise of)
    // WorstBound() can still displace the current k-th best on the
    // vertex-id tie-break (see PruneBoundExceeds).
    if (PruneBoundExceeds(threshold, top.WorstBound())) break;

    const auto hit = lists[min_list].Next();
    const uint32_t p_index = query.data_points->IndexOf(hit->vertex);
    if (!evaluated[p_index]) {
      evaluated[p_index] = true;
      GphiResult r = engine.EvaluateBounded(hit->vertex, k, query.aggregate,
                                            top.WorstBound());
      if (r.distance != kInfWeight) {
        top.Offer({hit->vertex, r.distance, std::move(r.subset)});
      }
    }
  }
  return std::move(top).Sorted();
}

std::vector<KFannEntry> SolveKIer(const FannQuery& query, size_t k_results,
                                  GphiEngine& engine, const RTree& p_tree) {
  ValidateQuery(query);
  FANNR_CHECK(k_results > 0);
  FANNR_CHECK(!query.Weighted() &&
              "IER-kNN prunes by raw Euclidean bounds and cannot honor "
              "per-query-point weights");
  FANNR_CHECK(query.graph->HasCoordinates() &&
              query.graph->EuclideanConsistent());
  const size_t k = query.FlexSubsetSize();
  engine.Prepare(*query.query_points);

  std::vector<Point> q_points;
  q_points.reserve(query.query_points->size());
  for (VertexId q : query.query_points->members()) {
    q_points.push_back(query.graph->Coord(q));
  }

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
  heap.push({EuclidGphiBound(q_points, p_tree.NodeMbr(p_tree.Root()), k,
                             query.aggregate),
             false, p_tree.Root(), kInvalidVertex});
  TopK top(k_results);

  while (!heap.empty()) {
    const Entry e = heap.top();
    // Margined and strict: a subtree whose lower bound equals (or sits
    // within FP noise of) WorstBound() may hold an equal-distance
    // candidate that wins the vertex-id tie-break.
    if (PruneBoundExceeds(e.bound, top.WorstBound())) break;
    heap.pop();
    if (e.is_point) {
      GphiResult r = engine.EvaluateBounded(e.vertex, k, query.aggregate,
                                            top.WorstBound());
      if (r.distance != kInfWeight) {
        top.Offer({e.vertex, r.distance, std::move(r.subset)});
      }
    } else if (p_tree.IsLeaf(e.node)) {
      for (const RTree::Item& item : p_tree.Items(e.node)) {
        heap.push({EuclidGphiPoint(q_points, item.point, k,
                                   query.aggregate),
                   true, 0, item.id});
      }
    } else {
      for (const RTree::Child& child : p_tree.Children(e.node)) {
        heap.push({EuclidGphiBound(q_points, child.mbr, k, query.aggregate),
                   false, child.node, kInvalidVertex});
      }
    }
  }
  return std::move(top).Sorted();
}

std::vector<KFannEntry> SolveKExactMax(const FannQuery& query,
                                       size_t k_results) {
  ValidateQuery(query);
  FANNR_CHECK(k_results > 0);
  FANNR_CHECK(!query.Weighted() &&
              "Exact-max's saturation counters pop by raw distance and "
              "cannot honor per-query-point weights");
  FANNR_CHECK(query.aggregate == Aggregate::kMax);
  const size_t k = query.FlexSubsetSize();

  std::vector<IncrementalNnSearch> lists;
  lists.reserve(query.query_points->size());
  for (VertexId q : query.query_points->members()) {
    lists.emplace_back(*query.graph, q, *query.data_points);
  }

  using Head = std::pair<Weight, uint32_t>;
  FlatHeap<Head> heads;
  heads.reserve(lists.size());
  for (uint32_t i = 0; i < lists.size(); ++i) {
    const auto* head = lists[i].Peek();
    if (head != nullptr) heads.push({head->distance, i});
  }

  // arrival = (distance from its query point, query point id); kept so
  // the reported subset can be sorted nearest-first with id tie-breaks,
  // matching the other solvers' SelectAndFold order.
  // Both are kept per data point by its member index.
  using Arrival = std::pair<Weight, VertexId>;
  std::vector<std::vector<Arrival>> arrivals(query.data_points->size());
  std::vector<bool> saturated(query.data_points->size(), false);
  std::vector<KFannEntry> result;

  // Pops arrive in nondecreasing distance, but the order of equal-
  // distance pops depends on Q's iteration order. Process one distance
  // plateau at a time: collect every data point whose counter reaches k
  // at exactly distance d, then emit them in vertex-id order — the same
  // (distance, id) total order the other k-FANN solvers use.
  while (!heads.empty() && result.size() < k_results) {
    const Weight d = heads.top().first;
    std::vector<VertexId> pending;
    while (!heads.empty() && heads.top().first == d) {
      const uint32_t i = heads.top().second;
      heads.pop();
      const auto hit = lists[i].Next();
      const uint32_t index = query.data_points->IndexOf(hit->vertex);
      if (!saturated[index]) {
        auto& arrived = arrivals[index];
        arrived.push_back({hit->distance, lists[i].source()});
        if (arrived.size() >= k) {
          saturated[index] = true;
          pending.push_back(hit->vertex);
        }
      }
      const auto* next = lists[i].Peek();
      if (next != nullptr) heads.push({next->distance, i});
    }
    std::sort(pending.begin(), pending.end());
    for (VertexId vertex : pending) {
      if (result.size() >= k_results) break;
      std::vector<Arrival> arrived =
          std::move(arrivals[query.data_points->IndexOf(vertex)]);
      std::sort(arrived.begin(), arrived.end());
      KFannEntry entry;
      entry.vertex = vertex;
      entry.distance = arrived[k - 1].first;  // == d
      entry.subset.reserve(k);
      for (size_t i = 0; i < k; ++i) entry.subset.push_back(arrived[i].second);
      result.push_back(std::move(entry));
    }
  }
  return result;  // (distance, vertex id) order by construction
}

}  // namespace fannr
