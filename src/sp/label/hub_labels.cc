#include "sp/label/hub_labels.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "common/flat_heap.h"
#include "common/rng.h"
#include "engine/thread_pool.h"
#include "graph/index_io.h"
#include "sp/dijkstra.h"

namespace fannr {

namespace {

// One sample's contribution to the importance scores: the size of every
// vertex's shortest-path-tree subtree under `source`, accumulated into
// `score` (which the caller guards when sampling in parallel).
void AccumulateTreeScore(const Graph& graph, VertexId source,
                         std::vector<uint64_t>& score, std::mutex* mu) {
  const size_t n = graph.NumVertices();
  SsspTree tree = DijkstraSsspTree(graph, source);
  // Process vertices from far to near so each vertex's subtree size is
  // complete before being added to its parent.
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return tree.dist[a] > tree.dist[b];
  });
  std::vector<uint64_t> subtree(n, 1);
  std::unique_lock<std::mutex> lock;
  if (mu != nullptr) lock = std::unique_lock<std::mutex>(*mu);
  for (VertexId v : order) {
    if (tree.dist[v] == kInfWeight) continue;
    score[v] += subtree[v];
    if (tree.parent[v] != kInvalidVertex) {
      subtree[tree.parent[v]] += subtree[v];
    }
  }
}

// Importance score per vertex: how often it appears on sampled shortest
// paths, estimated as the sum of its shortest-path-tree subtree sizes over
// a few random sources. High-score vertices make good (early) hubs.
//
// The sources are pre-drawn from one sequential RNG stream, and the
// per-sample contributions are wrapping uint64 additions, so the result
// is bitwise identical whether the samples run sequentially or fanned
// over a pool.
std::vector<uint64_t> SampledTreeScores(const Graph& graph,
                                        size_t num_samples, uint64_t seed,
                                        ThreadPool* pool) {
  const size_t n = graph.NumVertices();
  std::vector<uint64_t> score(n, 0);
  Rng rng(seed);
  std::vector<VertexId> sources(num_samples);
  for (size_t s = 0; s < num_samples; ++s) {
    sources[s] = static_cast<VertexId>(rng.NextIndex(n));
  }
  if (pool == nullptr) {
    for (VertexId source : sources) {
      AccumulateTreeScore(graph, source, score, nullptr);
    }
  } else {
    std::mutex mu;
    pool->ParallelFor(sources.size(), [&](size_t s, size_t /*worker*/) {
      AccumulateTreeScore(graph, sources[s], score, &mu);
    });
  }
  return score;
}

}  // namespace

std::optional<HubLabels> HubLabels::Build(const Graph& graph,
                                          const Options& options,
                                          ThreadPool* pool) {
  const size_t n = graph.NumVertices();
  HubLabels result;
  result.fingerprint_ = graph.Fingerprint();
  result.build_epoch_ = graph.epoch();
  if (n == 0) {
    result.offsets_.vec().assign(1, 0);
    return result;
  }

  // Vertex order: decreasing importance; rank[v] = position in the order.
  std::vector<uint64_t> score =
      SampledTreeScores(graph, options.num_order_samples, options.seed, pool);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return score[a] > score[b];
  });

  // Labels under construction (per vertex, entries appear in increasing
  // hub rank automatically since hubs are processed in rank order).
  std::vector<std::vector<Entry>> labels(n);
  size_t total_entries = 0;

  // Scratch for the pruned Dijkstra.
  std::vector<Weight> dist(n, kInfWeight);
  std::vector<VertexId> touched;
  // Scatter array: hub_dist_from_root[r] = distance from the current root
  // to hub ranked r, for hubs in the root's own label.
  std::vector<Weight> root_hub_dist(n, kInfWeight);

  using HeapEntry = std::pair<Weight, VertexId>;
  FlatHeap<HeapEntry> heap;  // drained every rank; capacity persists

  for (uint32_t rank = 0; rank < n; ++rank) {
    const VertexId root = order[rank];
    // Scatter the root's current label for O(|L(u)|) prune queries.
    for (const Entry& e : labels[root]) {
      root_hub_dist[e.hub_rank] = e.dist;
    }

    dist[root] = 0.0;
    touched.push_back(root);
    heap.push({0.0, root});
    while (!heap.empty()) {
      auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      // Prune: if some earlier hub already certifies a path of length <= d
      // between root and u, u needs no label from this root and nothing
      // beyond u can need one either.
      bool pruned = false;
      for (const Entry& e : labels[u]) {
        const Weight via = root_hub_dist[e.hub_rank];
        if (via != kInfWeight && via + e.dist <= d) {
          pruned = true;
          break;
        }
      }
      if (pruned) continue;

      labels[u].push_back({rank, d});
      ++total_entries;
      for (const Arc& a : graph.Neighbors(u)) {
        const Weight nd = d + a.weight;
        if (nd < dist[a.to]) {
          if (dist[a.to] == kInfWeight) touched.push_back(a.to);
          dist[a.to] = nd;
          heap.push({nd, a.to});
        }
      }
    }

    for (VertexId v : touched) dist[v] = kInfWeight;
    touched.clear();
    for (const Entry& e : labels[root]) {
      root_hub_dist[e.hub_rank] = kInfWeight;
    }

    if (total_entries * sizeof(Entry) > options.max_memory_bytes) {
      return std::nullopt;
    }
  }

  // Flatten.
  result.offsets_.vec().resize(n + 1);
  result.entries_.vec().reserve(total_entries);
  for (VertexId v = 0; v < n; ++v) {
    result.offsets_[v] = result.entries_.size();
    result.entries_.vec().insert(result.entries_.vec().end(),
                                 labels[v].begin(), labels[v].end());
    labels[v].clear();
    labels[v].shrink_to_fit();
  }
  result.offsets_[n] = result.entries_.size();
  return result;
}

Weight HubLabels::Distance(VertexId u, VertexId v) const {
  FANNR_CHECK(u + 1 < offsets_.size() && v + 1 < offsets_.size());
  if (u == v) return 0.0;
  const Entry* lu = entries_.data() + offsets_[u];
  const Entry* lu_end = entries_.data() + offsets_[u + 1];
  const Entry* lv = entries_.data() + offsets_[v];
  const Entry* lv_end = entries_.data() + offsets_[v + 1];
  Weight best = kInfWeight;
  while (lu != lu_end && lv != lv_end) {
    if (lu->hub_rank == lv->hub_rank) {
      best = std::min(best, lu->dist + lv->dist);
      ++lu;
      ++lv;
    } else if (lu->hub_rank < lv->hub_rank) {
      ++lu;
    } else {
      ++lv;
    }
  }
  return best;
}

double HubLabels::AverageLabelSize() const {
  const size_t n = offsets_.size() - 1;
  return n == 0 ? 0.0
               : static_cast<double>(entries_.size()) /
                     static_cast<double>(n);
}

namespace {
constexpr uint64_t kHubLabelsMagic = 0xFA22A81A6E150001ULL;

/// Structural validation on load: one span per
/// vertex, spans non-decreasing and ending exactly at the entry count —
/// Distance() indexes entries straight from offsets, so a corrupt
/// prefix array would read out of bounds. Entry hub ranks must be valid
/// vertex ranks.
bool ValidLabelStructure(const Graph& graph, const Column<size_t>& offsets,
                         const Column<HubLabels::Entry>& entries) {
  if (offsets.size() != graph.NumVertices() + 1) return false;
  if (offsets.front() != 0 || offsets.back() != entries.size()) return false;
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) return false;
  }
  for (const HubLabels::Entry& e : entries) {
    if (e.hub_rank >= graph.NumVertices()) return false;
  }
  return true;
}

}  // namespace

bool HubLabels::Save(const std::string& path) const {
  ArenaWriter writer;
  // Entry has 4 padding bytes after hub_rank; zero them so the section
  // bytes (and the payload checksum) are deterministic.
  std::vector<Entry> clean_entries(entries_.size());
  std::memset(clean_entries.data(), 0, clean_entries.size() * sizeof(Entry));
  for (size_t i = 0; i < entries_.size(); ++i) {
    clean_entries[i].hub_rank = entries_[i].hub_rank;
    clean_entries[i].dist = entries_[i].dist;
  }
  writer.Add(offsets_);
  writer.Add(clean_entries);
  return writer.Write(path, kHubLabelsMagic, fingerprint_);
}

std::optional<HubLabels> HubLabels::LoadMmap(const Graph& graph,
                                             const std::string& path,
                                             ArenaValidation validation) {
  std::optional<ArenaFile> arena =
      ArenaFile::Open(path, kHubLabelsMagic, validation);
  if (!arena.has_value() || arena->NumSections() != 2) return std::nullopt;
  if (arena->fingerprint() != graph.Fingerprint()) return std::nullopt;

  size_t num_offsets = 0, num_entries = 0;
  size_t* offsets = arena->SectionArray<size_t>(0, num_offsets);
  Entry* entries = arena->SectionArray<Entry>(1, num_entries);
  if (offsets == nullptr || entries == nullptr) return std::nullopt;

  HubLabels result;
  result.offsets_ = Column<size_t>::Borrow(offsets, num_offsets);
  result.entries_ = Column<Entry>::Borrow(entries, num_entries);
  if (!ValidLabelStructure(graph, result.offsets_, result.entries_)) {
    return std::nullopt;
  }
  result.fingerprint_ = graph.Fingerprint();
  result.build_epoch_ = graph.epoch();
  result.arena_ = std::make_shared<ArenaFile>(std::move(*arena));
  return result;
}

size_t HubLabels::MemoryBytes() const {
  return offsets_.memory_bytes() + entries_.memory_bytes();
}

}  // namespace fannr
