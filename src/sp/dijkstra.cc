#include "sp/dijkstra.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/flat_heap.h"

namespace fannr {

namespace {

// Min-heap entry: (distance, vertex), ordered by distance with vertex id
// as the tiebreaker (lexicographic pair comparison).
using HeapEntry = std::pair<Weight, VertexId>;
using MinHeap = FlatHeap<HeapEntry>;

// End of a bucket list or of the free list.
constexpr uint32_t kNoEntry = std::numeric_limits<uint32_t>::max();

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
  const size_t pushes = graph_.NumArcs() + 1;
  heap_.reserve(pushes);
  if (RefreshBuckets() && pushes > pool_.capacity()) {
    RecordFrontierGrowth();
    pool_.reserve(pushes);
  }
}

bool DijkstraSearch::RefreshBuckets() {
  const GraphEpoch epoch = graph_.epoch();
  if (bucket_epoch_ == epoch) return inv_width_ > 0.0;
  bucket_epoch_ = epoch;
  inv_width_ = 0.0;
  Weight w_min = kInfWeight;
  Weight w_max = 0.0;
  const size_t n = graph_.NumVertices();
  for (VertexId u = 0; u < n; ++u) {
    for (const Arc& a : graph_.Neighbors(u)) {
      w_min = std::min(w_min, a.weight);
      w_max = std::max(w_max, a.weight);
    }
  }
  // A relaxation from the bucket being drained lands at most
  // ceil(w_max / w_min) + 1 buckets ahead; two more slots absorb
  // rounding in the bucket index. No arcs leaves w_min > w_max.
  const Weight inv = 1.0 / w_min;
  const Weight span = std::ceil(w_max * inv) + 3.0;
  if (!(w_min > 0.0 && w_min <= w_max && std::isfinite(w_max) &&
        std::isfinite(inv) && span <= static_cast<Weight>(n))) {
    return false;
  }
  const uint64_t ring = std::bit_ceil(static_cast<uint64_t>(span));
  if (ring > n) return false;
  inv_width_ = inv;
  ring_mask_ = ring - 1;
  if (ring > slot_head_.capacity()) RecordFrontierGrowth();
  slot_head_.assign(ring, kNoEntry);
  open_.reserve(ring);  // ids in open_ are distinct slots of the ring
  return true;
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
  // A full SSSP writes every vertex, so `out` itself serves as the
  // distance array — no TimestampedArray indirection and no copy-out
  // pass. assign() on an already-|V|-sized vector reuses its storage;
  // a bounded search needs the kInfWeight fill too, as the label of
  // every vertex it never reaches.
  out.assign(graph_.NumVertices(), kInfWeight);
  return RefreshBuckets() ? SsspBuckets(source, targets, stop, out)
                          : SsspHeap(source, targets, stop, out);
}

Weight DijkstraSearch::SsspBuckets(VertexId source,
                                   const std::span<const VertexId>* targets,
                                   const GphiBound& stop,
                                   std::vector<Weight>& out) {
  const Weight reach = PruneReach(targets, stop);
  const Weight inv_width = inv_width_;
  const uint64_t mask = ring_mask_;
  uint32_t* const head = slot_head_.data();
  if (slots_dirty_) {
    std::fill(slot_head_.begin(), slot_head_.end(), kNoEntry);
    slots_dirty_ = false;
  }
  pool_.clear();
  free_head_ = kNoEntry;
  open_.clear();
  uint64_t cur = 0;  // id of the bucket being drained
  size_t final_targets = 0;  // targets[0, final_targets) are final

  const auto push = [&](Weight d, VertexId v, uint64_t bucket) {
    uint32_t& slot = head[bucket & mask];
    if (slot == kNoEntry && bucket != cur) open_.push(bucket);
    uint32_t idx = free_head_;
    if (idx != kNoEntry) {
      free_head_ = pool_[idx].next;
      pool_[idx] = {d, v, slot};
    } else {
      FANNR_DCHECK(pool_.size() < kNoEntry);
      idx = static_cast<uint32_t>(pool_.size());
      if (pool_.size() == pool_.capacity()) RecordFrontierGrowth();
      pool_.push_back({d, v, slot});
    }
    slot = idx;
  };

  out[source] = 0.0;
  push(0.0, source, 0);
  open_.push(0);
  while (!open_.empty()) {
    cur = open_.top();
    const uint64_t last = cur + mask;  // furthest bucket the ring holds
    const Weight last_f = static_cast<Weight>(last);
    uint32_t& list = head[cur & mask];
    while (list != kNoEntry) {
      const uint32_t idx = list;
      const BucketEntry entry = pool_[idx];
      list = entry.next;
      pool_[idx].next = free_head_;
      free_head_ = idx;
      if (entry.dist > out[entry.vertex]) continue;  // stale entry
      for (const Arc& a : graph_.Neighbors(entry.vertex)) {
        const Weight nd = entry.dist + a.weight;
        if (nd < out[a.to]) {
          out[a.to] = nd;
          const Weight f = nd * inv_width;
          const uint64_t bucket =
              f < last_f ? static_cast<uint64_t>(f) : last;
          push(nd, a.to, std::clamp(bucket, cur, last));
        }
      }
    }
    open_.pop();
    // Between buckets: every queued entry sits in a bucket b >= the
    // next open one and has d * inv_width >= b (ids past 2^53 would
    // round in the comparison, so those searches run on to the end).
    if (targets == nullptr || open_.empty()) continue;
    const uint64_t next = open_.top();
    if (next > (uint64_t{1} << 53)) continue;
    const Weight bound = static_cast<Weight>(next);
    while (final_targets < targets->size() &&
           out[(*targets)[final_targets]] * inv_width < bound) {
      ++final_targets;
    }
    const bool all_final = final_targets == targets->size();
    // The radius: the largest d with d * inv_width < bound. Rounded
    // multiplication is monotone in d, so step from bound / inv_width
    // to the edge one double at a time (a few steps at most).
    Weight radius = bound / inv_width;
    if (!std::isfinite(radius)) continue;
    // bound / inv_width is the radius to within the steps below, which
    // reach's margin covers.
    if (!all_final && !(reach * radius > stop.bound)) continue;
    while (radius > 0.0 && radius * inv_width >= bound) {
      radius = std::nextafter(radius, 0.0);
    }
    for (Weight up = std::nextafter(radius, kInfWeight);
         up * inv_width < bound; up = std::nextafter(up, kInfWeight)) {
      radius = up;
    }
    if (!all_final && !Prunes(*targets, stop, out, radius)) continue;
    slots_dirty_ = true;
    return radius;
  }
  return kInfWeight;
}

Weight DijkstraSearch::SsspHeap(VertexId source,
                                const std::span<const VertexId>* targets,
                                const GphiBound& stop,
                                std::vector<Weight>& out) {
  const Weight reach = PruneReach(targets, stop);
  heap_.clear();
  out[source] = 0.0;
  heap_.push({0.0, source});
  size_t final_targets = 0;  // targets[0, final_targets) are final
  while (!heap_.empty()) {
    auto [d, u] = heap_.top();
    if (targets != nullptr) {
      // Every queued entry is >= d, so a label below d is final.
      while (final_targets < targets->size() &&
             out[(*targets)[final_targets]] < d) {
        ++final_targets;
      }
      if (final_targets == targets->size()) {
        return std::nextafter(d, -kInfWeight);
      }
      if (reach * d > stop.bound) {
        const Weight radius = std::nextafter(d, -kInfWeight);
        if (Prunes(*targets, stop, out, radius)) return radius;
      }
    }
    heap_.pop();
    if (d > out[u]) continue;
    for (const Arc& a : graph_.Neighbors(u)) {
      const Weight nd = d + a.weight;
      if (nd < out[a.to]) {
        out[a.to] = nd;
        heap_.push({nd, a.to});
      }
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
