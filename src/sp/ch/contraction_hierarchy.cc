#include "sp/ch/contraction_hierarchy.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/flat_heap.h"
#include "graph/index_io.h"

namespace fannr {

namespace {

using HeapEntry = std::pair<Weight, VertexId>;
using MinHeap = FlatHeap<HeapEntry>;

// Mutable adjacency during contraction: per-vertex map neighbor -> weight
// (keeping the minimum weight per neighbor pair).
using DynamicAdjacency = std::vector<std::unordered_map<VertexId, Weight>>;

// Local witness search: is there a u->w path of length <= limit in the
// remaining graph avoiding `excluded`? Gives up (returns false) after
// `settle_limit` settles.
class WitnessSearch {
 public:
  WitnessSearch(const DynamicAdjacency& adj,
                const std::vector<bool>& contracted, size_t settle_limit)
      : adj_(adj),
        contracted_(contracted),
        settle_limit_(settle_limit),
        dist_(adj.size(), kInfWeight) {}

  // Runs one search from `source`, treating `excluded` as removed.
  // Returns the distances to `targets` capped at `limit` (kInfWeight if
  // not proven <= limit).
  void Run(VertexId source, VertexId excluded, Weight limit) {
    dist_.NewEpoch();
    heap_.clear();
    dist_.Set(source, 0.0);
    heap_.push({0.0, source});
    size_t settled = 0;
    while (!heap_.empty() && settled < settle_limit_) {
      auto [d, u] = heap_.top();
      heap_.pop();
      if (d > dist_.Get(u)) continue;
      if (d > limit) break;
      ++settled;
      for (const auto& [v, w] : adj_[u]) {
        if (v == excluded || contracted_[v]) continue;
        const Weight nd = d + w;
        if (nd < dist_.Get(v)) {
          dist_.Set(v, nd);
          heap_.push({nd, v});
        }
      }
    }
  }

  Weight DistanceTo(VertexId v) const { return dist_.Get(v); }

 private:
  const DynamicAdjacency& adj_;
  const std::vector<bool>& contracted_;
  size_t settle_limit_;
  TimestampedArray<Weight> dist_;
  MinHeap heap_;  // persists across the O(n) Run calls of one build
};

// Shortcuts needed to contract `v` right now.
struct Shortcut {
  VertexId from;
  VertexId to;
  Weight weight;
};

std::vector<Shortcut> SimulateContraction(const DynamicAdjacency& adj,
                                          const std::vector<bool>& contracted,
                                          WitnessSearch& witness,
                                          VertexId v) {
  std::vector<std::pair<VertexId, Weight>> neighbors;
  for (const auto& [u, w] : adj[v]) {
    if (!contracted[u]) neighbors.push_back({u, w});
  }
  std::vector<Shortcut> shortcuts;
  for (size_t i = 0; i < neighbors.size(); ++i) {
    const auto [u, wu] = neighbors[i];
    Weight max_via = 0.0;
    for (size_t j = 0; j < neighbors.size(); ++j) {
      if (j != i) max_via = std::max(max_via, wu + neighbors[j].second);
    }
    witness.Run(u, v, max_via);
    for (size_t j = i + 1; j < neighbors.size(); ++j) {
      const auto [w, ww] = neighbors[j];
      const Weight via = wu + ww;
      if (witness.DistanceTo(w) > via) {
        shortcuts.push_back({u, w, via});
      }
    }
  }
  return shortcuts;
}

}  // namespace

ContractionHierarchy::ContractionHierarchy(size_t n)
    : dist_forward_(n, kInfWeight), dist_backward_(n, kInfWeight) {}

ContractionHierarchy ContractionHierarchy::Build(const Graph& graph,
                                                 const Options& options) {
  const size_t n = graph.NumVertices();
  ContractionHierarchy ch(n);
  ch.fingerprint_ = graph.Fingerprint();
  ch.build_epoch_ = graph.epoch();

  DynamicAdjacency adj(n);
  for (VertexId u = 0; u < n; ++u) {
    for (const Arc& a : graph.Neighbors(u)) {
      auto [it, inserted] = adj[u].emplace(a.to, a.weight);
      if (!inserted) it->second = std::min(it->second, a.weight);
    }
  }

  std::vector<bool> contracted(n, false);
  std::vector<uint32_t> rank(n, 0);
  std::vector<uint32_t> deleted_neighbors(n, 0);
  WitnessSearch witness(adj, contracted, options.witness_settle_limit);

  auto priority = [&](VertexId v, size_t num_shortcuts) {
    const size_t degree = [&] {
      size_t d = 0;
      for (const auto& [u, w] : adj[v]) {
        (void)w;
        if (!contracted[u]) ++d;
      }
      return d;
    }();
    return static_cast<double>(num_shortcuts) - static_cast<double>(degree) +
           0.5 * static_cast<double>(deleted_neighbors[v]);
  };

  // Lazy priority queue of (priority, vertex).
  using PqEntry = std::pair<double, VertexId>;
  FlatHeap<PqEntry> pq;
  pq.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    const auto shortcuts = SimulateContraction(adj, contracted, witness, v);
    pq.push({priority(v, shortcuts.size()), v});
  }

  // Collected edges of the upward graph: (lower-rank endpoint gets the arc
  // after ranks are final).
  std::vector<Shortcut> all_edges;
  for (VertexId u = 0; u < n; ++u) {
    for (const Arc& a : graph.Neighbors(u)) {
      if (u < a.to) all_edges.push_back({u, a.to, a.weight});
    }
  }

  uint32_t next_rank = 0;
  while (!pq.empty()) {
    auto [prio, v] = pq.top();
    pq.pop();
    if (contracted[v]) continue;
    // Lazy update: recompute and requeue if the priority got stale.
    const auto shortcuts = SimulateContraction(adj, contracted, witness, v);
    const double current = priority(v, shortcuts.size());
    if (!pq.empty() && current > pq.top().first + 1e-12) {
      pq.push({current, v});
      continue;
    }
    // Contract v.
    contracted[v] = true;
    rank[v] = next_rank++;
    for (const auto& [u, w] : adj[v]) {
      (void)w;
      if (!contracted[u]) ++deleted_neighbors[u];
    }
    for (const Shortcut& s : shortcuts) {
      auto add = [&](VertexId a, VertexId b, Weight w) {
        auto [it, inserted] = adj[a].emplace(b, w);
        if (!inserted) it->second = std::min(it->second, w);
      };
      add(s.from, s.to, s.weight);
      add(s.to, s.from, s.weight);
      all_edges.push_back(s);
      ++ch.num_shortcuts_;
    }
  }

  // Build the upward CSR: each edge goes from its lower-ranked endpoint to
  // its higher-ranked endpoint.
  std::vector<std::vector<Arc>> up(n);
  for (const Shortcut& e : all_edges) {
    if (rank[e.from] < rank[e.to]) {
      up[e.from].push_back({e.to, e.weight});
    } else {
      up[e.to].push_back({e.from, e.weight});
    }
  }
  ch.up_offsets_.vec().resize(n + 1);
  size_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    ch.up_offsets_[v] = total;
    total += up[v].size();
  }
  ch.up_offsets_[n] = total;
  ch.up_arcs_.vec().reserve(total);
  for (VertexId v = 0; v < n; ++v) {
    ch.up_arcs_.vec().insert(ch.up_arcs_.vec().end(), up[v].begin(),
                             up[v].end());
  }
  return ch;
}

Weight ContractionHierarchy::Distance(VertexId u, VertexId v) const {
  return BidirUpwardSearch(*this, u, v, dist_forward_, dist_backward_,
                           heap_forward_, heap_backward_);
}

ContractionHierarchy::Search::Search(const ContractionHierarchy& ch)
    : ch_(&ch),
      dist_forward_(ch.up_offsets_.size() - 1, kInfWeight),
      dist_backward_(ch.up_offsets_.size() - 1, kInfWeight) {}

Weight ContractionHierarchy::Search::Distance(VertexId u, VertexId v) {
  return BidirUpwardSearch(*ch_, u, v, dist_forward_, dist_backward_,
                           heap_forward_, heap_backward_);
}

Weight ContractionHierarchy::BidirUpwardSearch(
    const ContractionHierarchy& ch, VertexId u, VertexId v,
    TimestampedArray<Weight>& forward, TimestampedArray<Weight>& backward,
    FlatHeap<std::pair<Weight, VertexId>>& forward_heap,
    FlatHeap<std::pair<Weight, VertexId>>& backward_heap) {
  FANNR_CHECK(u + 1 < ch.up_offsets_.size() &&
              v + 1 < ch.up_offsets_.size());
  if (u == v) return 0.0;
  forward.NewEpoch();
  backward.NewEpoch();

  auto arcs = [&](VertexId x) {
    return std::span<const Arc>(ch.up_arcs_.data() + ch.up_offsets_[x],
                                ch.up_offsets_[x + 1] - ch.up_offsets_[x]);
  };

  Weight best = kInfWeight;
  auto run = [&](VertexId source, TimestampedArray<Weight>& mine,
                 TimestampedArray<Weight>& other, MinHeap& heap) {
    heap.clear();
    mine.Set(source, 0.0);
    heap.push({0.0, source});
    while (!heap.empty()) {
      auto [d, x] = heap.top();
      heap.pop();
      if (d > mine.Get(x)) continue;
      if (d >= best) break;  // upward searches can stop at the best meet
      if (other.IsSet(x)) best = std::min(best, d + other.Get(x));
      for (const Arc& a : arcs(x)) {
        const Weight nd = d + a.weight;
        if (nd < mine.Get(a.to)) {
          mine.Set(a.to, nd);
          heap.push({nd, a.to});
        }
      }
    }
  };
  run(u, forward, backward, forward_heap);
  run(v, backward, forward, backward_heap);
  return best;
}

namespace {
constexpr uint64_t kChMagic = 0xFA22A81AC4000003ULL;

/// The upward CSR must be a monotone prefix array over valid targets —
/// BidirUpwardSearch follows it without bounds checks.
bool ValidUpwardCsr(uint64_t vertices, const Column<size_t>& offsets,
                    const Column<Arc>& arcs) {
  if (offsets.size() != vertices + 1) return false;
  if (offsets.front() != 0 || offsets.back() != arcs.size()) return false;
  for (size_t i = 0; i < vertices; ++i) {
    if (offsets[i] > offsets[i + 1]) return false;
  }
  for (const Arc& a : arcs) {
    if (a.to >= vertices || !(a.weight > 0.0)) return false;
  }
  return true;
}
}  // namespace

bool ContractionHierarchy::Save(const std::string& path) const {
  ArenaWriter writer;
  std::vector<Arc> clean_arcs(up_arcs_.size());
  std::memset(clean_arcs.data(), 0, clean_arcs.size() * sizeof(Arc));
  for (size_t i = 0; i < up_arcs_.size(); ++i) {
    clean_arcs[i].to = up_arcs_[i].to;
    clean_arcs[i].weight = up_arcs_[i].weight;
  }
  writer.AddScalar<uint64_t>(num_shortcuts_);
  writer.Add(up_offsets_);
  writer.Add(clean_arcs);
  return writer.Write(path, kChMagic, fingerprint_);
}

std::optional<ContractionHierarchy> ContractionHierarchy::LoadMmap(
    const Graph& graph, const std::string& path, ArenaValidation validation) {
  std::optional<ArenaFile> arena =
      ArenaFile::Open(path, kChMagic, validation);
  if (!arena.has_value() || arena->NumSections() != 3) return std::nullopt;
  if (arena->fingerprint() != graph.Fingerprint()) return std::nullopt;

  uint64_t shortcuts = 0;
  if (!arena->ReadScalar(0, shortcuts)) return std::nullopt;
  size_t num_offsets = 0, num_arcs = 0;
  size_t* offsets = arena->SectionArray<size_t>(1, num_offsets);
  Arc* arcs = arena->SectionArray<Arc>(2, num_arcs);
  if (offsets == nullptr || arcs == nullptr) return std::nullopt;

  const uint64_t vertices = graph.NumVertices();
  ContractionHierarchy ch(vertices);
  ch.fingerprint_ = graph.Fingerprint();
  ch.build_epoch_ = graph.epoch();
  ch.up_offsets_ = Column<size_t>::Borrow(offsets, num_offsets);
  ch.up_arcs_ = Column<Arc>::Borrow(arcs, num_arcs);
  if (!ValidUpwardCsr(vertices, ch.up_offsets_, ch.up_arcs_)) {
    return std::nullopt;
  }
  ch.num_shortcuts_ = shortcuts;
  ch.arena_ = std::make_shared<ArenaFile>(std::move(*arena));
  return ch;
}

size_t ContractionHierarchy::MemoryBytes() const {
  return up_offsets_.memory_bytes() + up_arcs_.memory_bytes();
}

}  // namespace fannr
