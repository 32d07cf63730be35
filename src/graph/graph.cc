#include "graph/graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace fannr {

namespace internal_graph {

uint64_t ArcChecksum(VertexId from, VertexId to, Weight weight) {
  // splitmix64-style finalizer over the packed endpoints and the weight's
  // bit pattern. The per-arc hashes are summed with wrapping addition, so
  // the total is order-independent and a single weight change adjusts it
  // by (new hash - old hash).
  auto mix = [](uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  };
  const uint64_t endpoints =
      (static_cast<uint64_t>(from) << 32) | static_cast<uint64_t>(to);
  return mix(mix(endpoints) ^ std::bit_cast<uint64_t>(weight));
}

}  // namespace internal_graph

Graph::Graph(std::vector<std::vector<Arc>> adjacency,
             std::vector<Point> coords)
    : coords_(std::move(coords)) {
  FANNR_CHECK(coords_.empty() || coords_.size() == adjacency.size());
  offsets_.vec().resize(adjacency.size() + 1, 0);
  size_t total = 0;
  for (size_t u = 0; u < adjacency.size(); ++u) {
    offsets_[u] = total;
    total += adjacency[u].size();
  }
  offsets_[adjacency.size()] = total;
  arcs_.vec().reserve(total);
  for (auto& list : adjacency) {
    for (const Arc& a : list) {
      FANNR_CHECK(a.to < adjacency.size());
      FANNR_CHECK(a.weight > 0.0);
      arcs_.vec().push_back(a);
    }
    list.clear();
    list.shrink_to_fit();
  }
  RecomputeWeightChecksum();
  RecomputeWeightRange();
}

Graph::Graph(Graph&& other) noexcept
    : offsets_(std::move(other.offsets_)),
      arcs_(std::move(other.arcs_)),
      coords_(std::move(other.coords_)),
      weight_checksum_(other.weight_checksum_),
      epoch_(other.epoch_.load(std::memory_order_relaxed)),
      w_min_(other.w_min_.load(std::memory_order_relaxed)),
      w_max_(other.w_max_.load(std::memory_order_relaxed)),
      arena_(std::move(other.arena_)) {}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    offsets_ = std::move(other.offsets_);
    arcs_ = std::move(other.arcs_);
    coords_ = std::move(other.coords_);
    weight_checksum_ = other.weight_checksum_;
    epoch_.store(other.epoch_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    w_min_.store(other.w_min_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    w_max_.store(other.w_max_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    arena_ = std::move(other.arena_);
  }
  return *this;
}

void Graph::RecomputeWeightChecksum() {
  uint64_t sum = 0;
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (const Arc& a : Neighbors(u)) {
      sum += internal_graph::ArcChecksum(u, a.to, a.weight);
    }
  }
  weight_checksum_ = sum;
}

void Graph::RecomputeWeightRange() {
  Weight w_min = kInfWeight;
  Weight w_max = 0.0;
  for (const Arc& a : arcs_) {
    w_min = std::min(w_min, a.weight);
    w_max = std::max(w_max, a.weight);
  }
  w_min_.store(w_min, std::memory_order_relaxed);
  w_max_.store(w_max, std::memory_order_relaxed);
}

BucketShape Graph::bucket_shape() const {
  // No arcs leaves w_min > w_max.
  const Weight w_min = w_min_.load(std::memory_order_relaxed);
  const Weight w_max = w_max_.load(std::memory_order_relaxed);
  const Weight inv = 1.0 / w_min;
  const Weight span = std::ceil(w_max * inv) + 3.0;
  if (!(w_min > 0.0 && w_min <= w_max && std::isfinite(w_max) &&
        std::isfinite(inv) && span <= static_cast<Weight>(NumVertices()))) {
    return {};
  }
  const uint64_t ring = std::bit_ceil(static_cast<uint64_t>(span));
  if (ring > NumVertices()) return {};
  return {inv, ring};
}

std::optional<Weight> Graph::EdgeWeight(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices()) return std::nullopt;
  for (const Arc& a : Neighbors(u)) {
    if (a.to == v) return a.weight;
  }
  return std::nullopt;
}

Graph::ApplyStats Graph::ApplyWeightUpdates(
    std::span<const EdgeWeightUpdate> updates) {
  ApplyStats stats;
  // The weight range moves by the new weights alone unless a weight at
  // either end of it is replaced; then it is rescanned.
  Weight new_min = w_min_.load(std::memory_order_relaxed);
  Weight new_max = w_max_.load(std::memory_order_relaxed);
  bool rescan = false;
  for (const EdgeWeightUpdate& update : updates) {
    FANNR_CHECK(update.u < NumVertices() && update.v < NumVertices() &&
                update.u != update.v);
    FANNR_CHECK(update.new_weight > 0.0 && std::isfinite(update.new_weight));
    // Update both arc directions; the builder deduplicated parallel
    // edges, so each direction has at most one arc.
    auto find_arc = [&](VertexId from, VertexId to) -> Arc* {
      for (size_t i = offsets_[from]; i < offsets_[from + 1]; ++i) {
        if (arcs_[i].to == to) return &arcs_[i];
      }
      return nullptr;
    };
    Arc* forward = find_arc(update.u, update.v);
    if (forward == nullptr) {
      ++stats.missing;
      continue;
    }
    Arc* backward = find_arc(update.v, update.u);
    FANNR_CHECK(backward != nullptr &&
                "undirected invariant violated: arc without its reverse");
    weight_checksum_ -=
        internal_graph::ArcChecksum(update.u, update.v, forward->weight);
    weight_checksum_ -=
        internal_graph::ArcChecksum(update.v, update.u, backward->weight);
    rescan |= forward->weight == new_min || forward->weight == new_max;
    new_min = std::min(new_min, update.new_weight);
    new_max = std::max(new_max, update.new_weight);
    forward->weight = update.new_weight;
    backward->weight = update.new_weight;
    weight_checksum_ +=
        internal_graph::ArcChecksum(update.u, update.v, forward->weight);
    weight_checksum_ +=
        internal_graph::ArcChecksum(update.v, update.u, backward->weight);
    ++stats.applied;
  }
  if (stats.applied > 0) {
    if (rescan) {
      RecomputeWeightRange();
    } else {
      w_min_.store(new_min, std::memory_order_relaxed);
      w_max_.store(new_max, std::memory_order_relaxed);
    }
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  return stats;
}

bool Graph::EuclideanConsistent() const {
  if (!HasCoordinates()) return false;
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (const Arc& a : Neighbors(u)) {
      if (EuclideanDistance(u, a.to) > a.weight * (1.0 + 1e-12)) return false;
    }
  }
  return true;
}

void Graph::MakeEuclideanConsistent() {
  FANNR_CHECK(HasCoordinates());
  double max_ratio = 0.0;
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (const Arc& a : Neighbors(u)) {
      const double euclid = EuclideanDistance(u, a.to);
      if (euclid > 0.0) max_ratio = std::max(max_ratio, euclid / a.weight);
    }
  }
  if (max_ratio <= 1.0) return;
  const double scale = 1.0 / (max_ratio * (1.0 + 1e-9));
  for (size_t i = 0; i < coords_.size(); ++i) {
    coords_[i].x *= scale;
    coords_[i].y *= scale;
  }
}

namespace {

constexpr uint64_t kGraphMagic = 0xFA22A81A62A9E004ULL;

/// Structural validation on load: offsets must be a monotone prefix
/// array ending at the arc count, coordinates empty or per-vertex,
/// targets in range with positive weights. The same pass yields the
/// smallest and largest arc weight.
bool ValidGraphStructure(const Column<size_t>& offsets,
                         const Column<Arc>& arcs, const Column<Point>& coords,
                         Weight& w_min, Weight& w_max) {
  if (offsets.empty() || offsets.back() != arcs.size()) return false;
  const size_t n = offsets.size() - 1;
  for (size_t i = 0; i < n; ++i) {
    if (offsets[i] > offsets[i + 1]) return false;
  }
  if (!coords.empty() && coords.size() != n) return false;
  for (const Arc& a : arcs) {
    if (a.to >= n || !(a.weight > 0.0)) return false;
    w_min = std::min(w_min, a.weight);
    w_max = std::max(w_max, a.weight);
  }
  return true;
}

}  // namespace

bool Graph::Save(const std::string& path) const {
  ArenaWriter writer;
  // Arc has 4 padding bytes after `to`; a field-wise copy into zeroed
  // storage makes the section bytes (and so the file and its checksum)
  // deterministic.
  std::vector<Arc> clean_arcs(arcs_.size());
  std::memset(clean_arcs.data(), 0, clean_arcs.size() * sizeof(Arc));
  for (size_t i = 0; i < arcs_.size(); ++i) {
    clean_arcs[i].to = arcs_[i].to;
    clean_arcs[i].weight = arcs_[i].weight;
  }
  writer.Add(offsets_);
  writer.Add(clean_arcs);
  writer.Add(coords_);
  return writer.Write(path, kGraphMagic, Fingerprint());
}

std::optional<Graph> Graph::LoadMmap(const std::string& path,
                                     ArenaValidation validation) {
  std::optional<ArenaFile> arena =
      ArenaFile::Open(path, kGraphMagic, validation);
  if (!arena.has_value() || arena->NumSections() != 3) return std::nullopt;

  size_t num_offsets = 0, num_arcs = 0, num_coords = 0;
  size_t* offsets = arena->SectionArray<size_t>(0, num_offsets);
  Arc* arcs = arena->SectionArray<Arc>(1, num_arcs);
  Point* coords = arena->SectionArray<Point>(2, num_coords);
  if (offsets == nullptr || arcs == nullptr || coords == nullptr) {
    return std::nullopt;
  }

  Graph graph;
  graph.offsets_ = Column<size_t>::Borrow(offsets, num_offsets);
  graph.arcs_ = Column<Arc>::Borrow(arcs, num_arcs);
  graph.coords_ = Column<Point>::Borrow(coords, num_coords);
  // The structural scan keeps queries on a corrupt payload memory-safe
  // without copying anything; it is the only O(V + E) work on this path.
  Weight w_min = kInfWeight;
  Weight w_max = 0.0;
  if (!ValidGraphStructure(graph.offsets_, graph.arcs_, graph.coords_, w_min,
                           w_max)) {
    return std::nullopt;
  }
  graph.w_min_.store(w_min, std::memory_order_relaxed);
  graph.w_max_.store(w_max, std::memory_order_relaxed);
  const GraphFingerprint stored = arena->fingerprint();
  if (stored.vertices != graph.offsets_.size() - 1 ||
      stored.edges != num_arcs / 2) {
    return std::nullopt;
  }
  // Trust the stored weight checksum instead of recomputing it per-arc:
  // under kFull the arena checksum certifies the header and every
  // payload byte, and Save always stores the true value.
  graph.weight_checksum_ = stored.weight_checksum;
  graph.arena_ = std::make_shared<ArenaFile>(std::move(*arena));
  return graph;
}

size_t Graph::MemoryBytes() const {
  return offsets_.memory_bytes() + arcs_.memory_bytes() +
         coords_.memory_bytes();
}

}  // namespace fannr
