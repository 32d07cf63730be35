// Contraction hierarchies (Geisberger et al. 2008): a preprocessing-based
// exact distance oracle.
//
// The paper cites CH among the indexing techniques for road networks
// (Section II-B) but does not evaluate it; we include it as an extension
// g_phi engine and for the ablation benchmarks. Vertices are contracted in
// importance order, inserting shortcuts that preserve shortest-path
// distances among the remaining vertices; queries run a bidirectional
// Dijkstra restricted to upward edges.

#ifndef FANNR_SP_CH_CONTRACTION_HIERARCHY_H_
#define FANNR_SP_CH_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/column.h"
#include "common/flat_heap.h"
#include "common/timestamped.h"
#include "graph/graph.h"

namespace fannr {

/// Exact CH distance oracle. The index itself (the upward search graph)
/// is immutable after Build/LoadMmap and safe to share across threads; all
/// query scratch lives in Search objects. The convenience Distance()
/// method below uses one internal Search and is therefore NOT
/// thread-safe — concurrent readers must create one Search per thread.
class ContractionHierarchy {
 public:
  struct Options {
    /// Witness searches give up after settling this many vertices and
    /// conservatively insert the shortcut (extra shortcuts cost memory,
    /// never correctness).
    size_t witness_settle_limit = 60;
  };

  /// A reusable bidirectional upward search bound to one hierarchy.
  /// Owns the scratch arrays (the TimestampedArray amortization pattern of
  /// sp/dijkstra.h); create one per thread. The hierarchy must outlive
  /// every Search bound to it.
  class Search {
   public:
    explicit Search(const ContractionHierarchy& ch);

    /// Exact network distance (kInfWeight if disconnected).
    Weight Distance(VertexId u, VertexId v);

   private:
    const ContractionHierarchy* ch_;
    TimestampedArray<Weight> dist_forward_;
    TimestampedArray<Weight> dist_backward_;
    FlatHeap<std::pair<Weight, VertexId>> heap_forward_;
    FlatHeap<std::pair<Weight, VertexId>> heap_backward_;
  };

  static ContractionHierarchy Build(const Graph& graph) {
    return Build(graph, Options{});
  }
  static ContractionHierarchy Build(const Graph& graph,
                                    const Options& options);

  /// Exact network distance (kInfWeight if disconnected). Convenience
  /// wrapper around an internal Search: const but NOT thread-safe (the
  /// scratch is shared); concurrent callers use one Search per thread.
  Weight Distance(VertexId u, VertexId v) const;

  /// Number of shortcut edges inserted during preprocessing.
  size_t NumShortcuts() const { return num_shortcuts_; }

  /// Approximate heap bytes of the upward search graph.
  size_t MemoryBytes() const;

  /// Writes the arena cache file (graph/index_io.h; its header carries
  /// the source graph's fingerprint) with zeroed arc padding
  /// (bit-deterministic). Returns false on I/O failure.
  bool Save(const std::string& path) const;

  /// Opens a Save file by mmap; the upward CSR points into the mapping.
  /// Returns nullopt on corrupt input, a stale format version, or a
  /// graph-fingerprint mismatch (a file saved against a different or
  /// since-updated network is rejected); the payload checksum is
  /// verified only under ArenaValidation::kFull.
  static std::optional<ContractionHierarchy> LoadMmap(
      const Graph& graph, const std::string& path,
      ArenaValidation validation = ArenaValidation::kHeaderOnly);

  /// The graph epoch the index was built (or loaded) at.
  GraphEpoch build_epoch() const { return build_epoch_; }

  /// Fingerprint of the graph the index was built against.
  const GraphFingerprint& fingerprint() const { return fingerprint_; }

  /// True iff the index still answers for `graph` exactly (no weight
  /// update since Build/LoadMmap). O(1); consulted by fann/dispatch for the
  /// stale-index query fallback.
  bool FreshFor(const Graph& graph) const {
    return build_epoch_ == graph.epoch() && fingerprint_ == graph.Fingerprint();
  }

 private:
  explicit ContractionHierarchy(size_t n);

  // Upward graph in CSR form: arcs from each vertex to higher-ranked
  // vertices only (original edges and shortcuts).
  Column<size_t> up_offsets_;
  Column<Arc> up_arcs_;
  size_t num_shortcuts_ = 0;
  GraphFingerprint fingerprint_;
  GraphEpoch build_epoch_ = 0;
  std::shared_ptr<void> arena_;  // keeps an mmap-backed file alive

  // The bidirectional upward search shared by Search::Distance and the
  // convenience Distance(); the scratch arrays and frontiers are passed
  // in by the caller so repeat queries reuse their grown storage.
  static Weight BidirUpwardSearch(
      const ContractionHierarchy& ch, VertexId u, VertexId v,
      TimestampedArray<Weight>& forward, TimestampedArray<Weight>& backward,
      FlatHeap<std::pair<Weight, VertexId>>& forward_heap,
      FlatHeap<std::pair<Weight, VertexId>>& backward_heap);

  // Scratch of the convenience Distance(); the reason that method is not
  // thread-safe.
  mutable TimestampedArray<Weight> dist_forward_;
  mutable TimestampedArray<Weight> dist_backward_;
  mutable FlatHeap<std::pair<Weight, VertexId>> heap_forward_;
  mutable FlatHeap<std::pair<Weight, VertexId>> heap_backward_;
};

}  // namespace fannr

#endif  // FANNR_SP_CH_CONTRACTION_HIERARCHY_H_
