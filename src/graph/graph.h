// Road-network graph in compressed sparse row (CSR) form.
//
// A road network is an undirected weighted graph G = (V, E, W) with
// strictly positive edge weights (paper Section II-A). Vertices optionally
// carry planar coordinates; when present and Euclidean-consistent
// (EuclideanDistance(coord(u), coord(v)) <= w(u, v) for every edge), the
// Euclidean distance between any two vertices lower-bounds their network
// distance, which the A* engine and the IER pruning rules rely on.
//
// The topology (vertices, edges) is immutable after construction, but
// edge WEIGHTS may be updated in place through ApplyWeightUpdates — the
// paper's motivating scenario for the index-free algorithms is road
// networks whose travel times change frequently (Section IV). Every
// weight change bumps a monotonically increasing epoch; caches and
// prebuilt indexes record the epoch they were computed at and treat a
// mismatch as staleness (see src/dynamic/ and DESIGN.md §2.8).

#ifndef FANNR_GRAPH_GRAPH_H_
#define FANNR_GRAPH_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/column.h"
#include "geo/point.h"
#include "graph/fingerprint.h"
#include "graph/index_io.h"

namespace fannr {

/// Vertex identifier; dense in [0, NumVertices()).
using VertexId = uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();

/// Edge weight / path distance.
using Weight = double;

/// Sentinel for "unreachable".
inline constexpr Weight kInfWeight = std::numeric_limits<Weight>::infinity();

/// A half-edge in an adjacency list.
struct Arc {
  VertexId to = kInvalidVertex;
  Weight weight = 0.0;
};

/// Monotonically increasing per-Graph version. Epoch 0 is the freshly
/// constructed (or loaded) graph; every applied weight-update batch
/// increments it by one.
using GraphEpoch = uint64_t;

/// The shape of a bucket queue over the graph's current arc weights
/// (sp/bucket_queue.h): bucket b holds distances d with
/// floor(d * inv_width) == b, and the ring holds `ring` consecutive
/// buckets. inv_width == 0 selects the heap.
struct BucketShape {
  Weight inv_width = 0.0;
  uint64_t ring = 0;
};

/// One edge-weight change: sets w(u, v) (both arc directions) to
/// `new_weight`. The edge must already exist — topology never changes.
struct EdgeWeightUpdate {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  Weight new_weight = 0.0;
};

/// Undirected weighted graph with optional vertex coordinates and
/// immutable topology. Construct via GraphBuilder (graph/builder.h), a
/// loader (graph/io.h), or a generator (graph/generator.h). Every
/// accessor is const with no internal scratch, so one Graph may be read
/// concurrently from any number of threads (the batch engine relies on
/// this). ApplyWeightUpdates is the only mutating operation; it must not
/// run concurrently with readers (updates happen between query batches —
/// the batch engine detects and rejects mid-batch epoch changes).
class Graph {
 public:
  /// Builds the CSR representation from per-vertex adjacency lists.
  /// `adjacency[u]` must contain an arc to v iff `adjacency[v]` contains an
  /// arc of equal weight back to u (the graph is undirected). `coords` is
  /// either empty or has one entry per vertex.
  Graph(std::vector<std::vector<Arc>> adjacency, std::vector<Point> coords);

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  // Manual moves: the epoch counter is atomic (readers may poll it from
  // worker threads) and atomics are not movable by default.
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  /// Number of vertices |V|.
  size_t NumVertices() const { return offsets_.size() - 1; }

  /// Number of undirected edges |E| (each stored as two arcs).
  size_t NumEdges() const { return arcs_.size() / 2; }

  /// Number of stored arcs (2|E|). Upper-bounds the entries a
  /// lazy-delete Dijkstra can ever push, so scratch heaps reserved to
  /// NumArcs() + 1 run allocation-free (see DijkstraSearch).
  size_t NumArcs() const { return arcs_.size(); }

  /// Outgoing arcs of `u`.
  std::span<const Arc> Neighbors(VertexId u) const {
    FANNR_DCHECK(u < NumVertices());
    return {arcs_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  /// Degree of `u`.
  size_t Degree(VertexId u) const {
    FANNR_DCHECK(u < NumVertices());
    return offsets_[u + 1] - offsets_[u];
  }

  /// Current weight of edge (u, v), or nullopt when no such edge exists.
  std::optional<Weight> EdgeWeight(VertexId u, VertexId v) const;

  // --- live weight updates (src/dynamic/, DESIGN.md §2.8) ---------------

  /// The graph's version: 0 at construction/load, +1 per applied update
  /// batch. Safe to read from any thread (relaxed atomic); prebuilt
  /// indexes and the source-distance cache compare epochs to detect
  /// staleness in O(1).
  GraphEpoch epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Applies edge-weight changes in place and bumps the epoch (once per
  /// call, iff at least one update applied). Updates addressing a
  /// non-existent edge are skipped and counted in the return value's
  /// second member. Every applied update must carry a positive finite
  /// weight and distinct in-range endpoints (checked). NOT safe to run
  /// concurrently with readers: callers serialize updates against query
  /// execution (see the class comment).
  struct ApplyStats {
    size_t applied = 0;
    size_t missing = 0;  ///< updates whose edge does not exist
  };
  ApplyStats ApplyWeightUpdates(std::span<const EdgeWeightUpdate> updates);

  /// The bucket queue's shape at the current weights: inv_width = 1 /
  /// w_min and ring = bit_ceil(ceil(w_max / w_min) + 3) slots, enough
  /// for a relaxation from the bucket being drained (it lands at most
  /// ceil(w_max / w_min) + 1 buckets ahead; two more slots absorb
  /// rounding in the bucket index). The heap instead when the ring
  /// would exceed |V| slots (buckets would hold one vertex each) or the
  /// weights give no finite positive width. w_min and w_max are kept at
  /// build, at load (in the structural scan) and per applied update
  /// batch, as relaxed atomics like the epoch, so this is O(1).
  BucketShape bucket_shape() const;

  /// The graph's structural identity (vertex/edge counts + weight
  /// checksum). O(1): the checksum is maintained incrementally across
  /// weight updates.
  GraphFingerprint Fingerprint() const {
    return {NumVertices(), NumEdges(), weight_checksum_};
  }

  /// True if vertices carry planar coordinates.
  bool HasCoordinates() const { return !coords_.empty(); }

  /// Coordinate of `u`. Requires HasCoordinates().
  const Point& Coord(VertexId u) const {
    FANNR_DCHECK(HasCoordinates() && u < NumVertices());
    return coords_[u];
  }

  /// All coordinates (empty if none).
  std::span<const Point> Coords() const {
    return {coords_.data(), coords_.size()};
  }

  /// Euclidean distance between two vertices. Requires HasCoordinates().
  double EuclideanDistance(VertexId u, VertexId v) const {
    return fannr::EuclideanDistance(Coord(u), Coord(v));
  }

  /// True if every edge satisfies euclid(u, v) <= w(u, v) (so Euclidean
  /// distance is an admissible lower bound on network distance). Always
  /// true for graphs without coordinates is NOT assumed — returns false.
  bool EuclideanConsistent() const;

  /// Scales all coordinates by the largest factor <= 1 that makes the
  /// graph Euclidean-consistent (no-op if already consistent). Real map
  /// data with travel-time weights typically needs this. Requires
  /// HasCoordinates() and at least one edge.
  void MakeEuclideanConsistent();

  /// Approximate heap memory used by the CSR arrays, in bytes.
  size_t MemoryBytes() const;

  /// Writes the arena cache file (graph/index_io.h): the CSR arrays as
  /// 64-byte-aligned sections behind the shared header, with arc
  /// padding bytes zeroed so the file is bit-deterministic. Much faster
  /// to reload than regenerating or re-parsing DIMACS for large
  /// networks. Returns false on I/O failure.
  bool Save(const std::string& path) const;

  /// Opens a Save file by mmap: the returned graph's CSR arrays point
  /// into the (copy-on-write private) mapping, so load cost is the map
  /// plus one structural scan — no copy, no per-arc checksum. The weight
  /// checksum is taken from the stored fingerprint; kFull additionally
  /// verifies the arena payload checksum over every byte. Returns
  /// nullopt on unreadable/corrupt/structurally invalid input.
  static std::optional<Graph> LoadMmap(
      const std::string& path,
      ArenaValidation validation = ArenaValidation::kHeaderOnly);

  /// True when the CSR arrays live in an mmap-ed index file rather than
  /// heap vectors.
  bool MemoryMapped() const { return arena_ != nullptr; }

 private:
  Graph() = default;

  /// Recomputes weight_checksum_ from scratch (construction).
  void RecomputeWeightChecksum();
  /// Recomputes w_min_ and w_max_ from every arc.
  void RecomputeWeightRange();

  Column<size_t> offsets_;  // size NumVertices() + 1
  Column<Arc> arcs_;        // grouped by source vertex
  Column<Point> coords_;    // empty or size NumVertices()
  uint64_t weight_checksum_ = 0;
  std::atomic<GraphEpoch> epoch_{0};
  std::atomic<Weight> w_min_{kInfWeight};  // smallest arc weight
  std::atomic<Weight> w_max_{0.0};         // largest arc weight
  // Keeps the mapping alive when the columns above are borrowed views
  // into a v3 index file (type-erased to keep this header light).
  std::shared_ptr<void> arena_;
};

namespace internal_graph {

/// Order-independent per-arc checksum contribution; summed (wrapping)
/// over all arcs so a weight update adjusts the total in O(1).
uint64_t ArcChecksum(VertexId from, VertexId to, Weight weight);

}  // namespace internal_graph

}  // namespace fannr

#endif  // FANNR_GRAPH_GRAPH_H_
