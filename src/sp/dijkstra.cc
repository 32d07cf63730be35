#include "sp/dijkstra.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/flat_heap.h"

namespace fannr {

namespace {

// Min-heap entry: (distance, vertex), ordered by distance with vertex id
// as the tiebreaker (lexicographic pair comparison).
using HeapEntry = std::pair<Weight, VertexId>;
using MinHeap = FlatHeap<HeapEntry>;

// The O(1) half of the best-bounded stop rule: the k-subset fold at
// radius r is at most reach * r (k products of at most max w_i * r,
// summed for sum; the margin covers their rounding), so while
// reach * r <= stop.bound the fold need not run. 0 when nothing prunes:
// a full row, or an infinite bound.
Weight PruneReach(const std::span<const VertexId>* targets,
                  const GphiBound& stop) {
  if (targets == nullptr || stop.bound == kInfWeight) return 0.0;
  FANNR_CHECK(stop.bound >= 0.0);
  FANNR_CHECK(stop.k >= 1 && stop.k <= targets->size());
  FANNR_CHECK(stop.weights.empty() || stop.weights.size() == targets->size());
  Weight w_max = stop.weights.empty() ? 1.0 : 0.0;
  for (double w : stop.weights) w_max = std::max(w_max, w);
  const Weight terms =
      stop.aggregate == Aggregate::kSum ? static_cast<Weight>(stop.k) : 1.0;
  return terms * w_max * (1.0 + 1e-6);
}

}  // namespace

std::vector<Weight> DijkstraSssp(const Graph& graph, VertexId source) {
  FANNR_CHECK(source < graph.NumVertices());
  std::vector<Weight> dist(graph.NumVertices(), kInfWeight);
  MinHeap heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;  // stale entry
    for (const Arc& a : graph.Neighbors(u)) {
      const Weight nd = d + a.weight;
      if (nd < dist[a.to]) {
        dist[a.to] = nd;
        heap.push({nd, a.to});
      }
    }
  }
  return dist;
}

SsspTree DijkstraSsspTree(const Graph& graph, VertexId source) {
  FANNR_CHECK(source < graph.NumVertices());
  SsspTree result;
  result.dist.assign(graph.NumVertices(), kInfWeight);
  result.parent.assign(graph.NumVertices(), kInvalidVertex);
  MinHeap heap;
  result.dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > result.dist[u]) continue;
    for (const Arc& a : graph.Neighbors(u)) {
      const Weight nd = d + a.weight;
      if (nd < result.dist[a.to]) {
        result.dist[a.to] = nd;
        result.parent[a.to] = u;
        heap.push({nd, a.to});
      }
    }
  }
  return result;
}

std::vector<VertexId> ShortestPath(const Graph& graph, VertexId source,
                                   VertexId target) {
  FANNR_CHECK(source < graph.NumVertices() &&
              target < graph.NumVertices());
  if (source == target) return {source};
  std::unordered_map<VertexId, Weight> dist;
  std::unordered_map<VertexId, VertexId> parent;
  MinHeap heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    auto it = dist.find(u);
    if (it == dist.end() || d > it->second) continue;
    if (u == target) {
      std::vector<VertexId> path;
      for (VertexId v = target;; v = parent.at(v)) {
        path.push_back(v);
        if (v == source) break;
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    for (const Arc& a : graph.Neighbors(u)) {
      const Weight nd = d + a.weight;
      auto [nit, inserted] = dist.try_emplace(a.to, nd);
      if (inserted || nd < nit->second) {
        nit->second = nd;
        parent[a.to] = u;
        heap.push({nd, a.to});
      }
    }
  }
  return {};
}

DijkstraSearch::DijkstraSearch(const Graph& graph)
    : graph_(graph),
      dist_(graph.NumVertices(), kInfWeight),
      settled_(graph.NumVertices(), 0) {}

void DijkstraSearch::ReserveFullSearch() {
  // One initial push plus at most one push per strict distance
  // improvement, of which there are at most NumArcs().
  queue_.Reserve(graph_.bucket_shape(), graph_.NumArcs() + 1);
}

Weight DijkstraSearch::Distance(VertexId source, VertexId target) {
  FANNR_CHECK(source < graph_.NumVertices() &&
              target < graph_.NumVertices());
  if (source == target) return 0.0;
  dist_.NewEpoch();
  heap_.clear();
  dist_.Set(source, 0.0);
  heap_.push({0.0, source});
  while (!heap_.empty()) {
    auto [d, u] = heap_.top();
    heap_.pop();
    if (d > dist_.Get(u)) continue;
    if (u == target) return d;
    for (const Arc& a : graph_.Neighbors(u)) {
      const Weight nd = d + a.weight;
      if (nd < dist_.Get(a.to)) {
        dist_.Set(a.to, nd);
        heap_.push({nd, a.to});
      }
    }
  }
  return kInfWeight;
}

void DijkstraSearch::SsspInto(VertexId source, std::vector<Weight>& out) {
  SsspRow(source, nullptr, GphiBound{}, out);
}

Weight DijkstraSearch::SsspInto(VertexId source,
                                std::span<const VertexId> targets,
                                std::vector<Weight>& out,
                                const GphiBound& stop) {
  for (VertexId t : targets) FANNR_CHECK(t < graph_.NumVertices());
  return SsspRow(source, &targets, stop, out);
}

bool DijkstraSearch::Prunes(std::span<const VertexId> targets,
                            const GphiBound& stop,
                            const std::vector<Weight>& out, Weight radius) {
  // A target within the radius is final; one beyond it is farther than
  // the radius, so the radius stands in for it.
  fold_.resize(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    const Weight d = std::min(out[targets[i]], radius);
    fold_[i] = stop.weights.empty() ? d : d * stop.weights[i];
  }
  std::partial_sort(fold_.begin(), fold_.begin() + stop.k, fold_.end());
  return PruneBoundExceeds(FoldSorted(fold_.data(), stop.k, stop.aggregate),
                           stop.bound);
}

Weight DijkstraSearch::SsspRow(VertexId source,
                               const std::span<const VertexId>* targets,
                               const GphiBound& stop,
                               std::vector<Weight>& out) {
  FANNR_CHECK(source < graph_.NumVertices());
  const Weight reach = PruneReach(targets, stop);
  // A full SSSP writes every vertex, so `out` itself serves as the
  // distance array — no TimestampedArray indirection and no copy-out
  // pass. assign() on an already-|V|-sized vector reuses its storage;
  // a bounded search needs the kInfWeight fill too, as the label of
  // every vertex it never reaches.
  out.assign(graph_.NumVertices(), kInfWeight);
  out[source] = 0.0;
  queue_.Reset(graph_.bucket_shape(), source);
  // By value: the queue's stores cannot make the compiler reload them.
  const auto scan = [dist = out.data(), &graph = graph_](Weight d, VertexId u,
                                                         auto& push) {
    if (d > dist[u]) return;  // stale entry
    for (const Arc& a : graph.Neighbors(u)) {
      const Weight nd = d + a.weight;
      if (nd < dist[a.to]) {
        dist[a.to] = nd;
        push(nd, a.to);
      }
    }
  };
  if (targets == nullptr) {
    queue_.Drain(scan, /*all=*/true);
    return kInfWeight;
  }
  size_t final_targets = 0;  // targets[0, final_targets) are final
  while (!queue_.empty()) {
    queue_.Drain(scan);
    while (final_targets < targets->size() &&
           queue_.Below(out[(*targets)[final_targets]])) {
      ++final_targets;
    }
    if (final_targets == targets->size()) return queue_.Radius();
    if (reach == 0.0) continue;
    // Radius() is within reach's margin of what the fold can exceed.
    const Weight radius = queue_.Radius();
    if (reach * radius > stop.bound && Prunes(*targets, stop, out, radius)) {
      return radius;
    }
  }
  return kInfWeight;
}

std::vector<Weight> DijkstraSearch::Distances(
    VertexId source, const std::vector<VertexId>& targets) {
  dist_.NewEpoch();
  settled_.NewEpoch();
  // Count how many distinct target vertices remain unsettled; a vertex
  // listed twice only needs settling once.
  size_t remaining = 0;
  for (VertexId t : targets) {
    FANNR_CHECK(t < graph_.NumVertices());
    if (settled_.Get(t) == 0) {
      settled_.Set(t, 1);  // 1 = "is an unsettled target"
      ++remaining;
    }
  }
  heap_.clear();
  dist_.Set(source, 0.0);
  heap_.push({0.0, source});
  while (!heap_.empty() && remaining > 0) {
    auto [d, u] = heap_.top();
    heap_.pop();
    if (d > dist_.Get(u)) continue;
    if (settled_.Get(u) == 1) {
      settled_.Set(u, 2);  // 2 = "settled target"
      --remaining;
    }
    for (const Arc& a : graph_.Neighbors(u)) {
      const Weight nd = d + a.weight;
      if (nd < dist_.Get(a.to)) {
        dist_.Set(a.to, nd);
        heap_.push({nd, a.to});
      }
    }
  }
  std::vector<Weight> result;
  result.reserve(targets.size());
  for (VertexId t : targets) {
    result.push_back(settled_.Get(t) == 2 ? dist_.Get(t) : kInfWeight);
  }
  return result;
}

}  // namespace fannr
