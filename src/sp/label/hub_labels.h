// Pruned 2-hop hub labeling: an index-based exact distance oracle.
//
// This plays the role of PHL (pruned highway labeling, Akiba et al.
// ALENEX'14) in the paper: after preprocessing, any network distance is
// answered by scanning two per-vertex label arrays. We implement pruned
// landmark labeling (Akiba et al. SIGMOD'13) with an importance order
// derived from sampled shortest-path trees, which approximates the
// betweenness-like orders that work well on road networks. The query
// interface and the role in every FANN_R algorithm are identical to PHL's
// (see DESIGN.md §2.1 for the substitution note); bench output labels this
// oracle "PHL" for table fidelity with the paper.
//
// Mirroring the paper's finding that PHL exhausts memory on the largest
// road networks (Fig. 9), Build enforces an optional memory budget and
// reports failure instead of thrashing.

#ifndef FANNR_SP_LABEL_HUB_LABELS_H_
#define FANNR_SP_LABEL_HUB_LABELS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/column.h"
#include "graph/graph.h"

namespace fannr {

class ThreadPool;

/// Exact 2-hop-labeling distance oracle. Immutable after Build/LoadMmap;
/// Distance is a pure two-pointer scan over the label arrays, so the
/// whole query surface is safe for concurrent readers.
class HubLabels {
 public:
  /// One label entry: (hub's importance rank, distance to that hub).
  /// Flat POD so label arrays serialize as raw sections.
  struct Entry {
    uint32_t hub_rank;
    Weight dist;
  };

  struct Options {
    /// Number of sampled shortest-path trees used to compute the vertex
    /// importance order. More samples = better order = smaller labels.
    size_t num_order_samples = 12;
    /// Build is abandoned (returns nullopt) once the label arrays exceed
    /// this many bytes.
    size_t max_memory_bytes = std::numeric_limits<size_t>::max();
    /// Seed for order sampling.
    uint64_t seed = 0x9B1F0E5ULL;
  };

  /// Preprocesses `graph`. Returns nullopt iff the memory budget was
  /// exceeded. With a non-null `pool` the importance-order sampling
  /// phase fans its shortest-path trees over the pool's workers; the
  /// result is bitwise identical to the sequential build (the sampled
  /// sources come from the same pre-drawn sequence and the per-vertex
  /// scores are integer sums, so accumulation order cannot matter).
  static std::optional<HubLabels> Build(const Graph& graph) {
    return Build(graph, Options{});
  }
  static std::optional<HubLabels> Build(const Graph& graph,
                                        const Options& options,
                                        ThreadPool* pool = nullptr);

  /// Exact network distance between `u` and `v` (kInfWeight if
  /// disconnected). Thread-safe after construction.
  Weight Distance(VertexId u, VertexId v) const;

  /// Total number of label entries across all vertices.
  size_t TotalLabelEntries() const { return entries_.size(); }

  /// Mean label entries per vertex.
  double AverageLabelSize() const;

  /// Approximate heap bytes held by the index.
  size_t MemoryBytes() const;

  /// Writes the arena cache file (graph/index_io.h — the header carries
  /// a format version and the fingerprint of the graph the labels were
  /// built against). Entry padding bytes are zeroed so the file is
  /// bit-deterministic. Returns false on I/O failure.
  bool Save(const std::string& path) const;

  /// Opens a Save file by mmap: the label arrays point into the mapping
  /// (no copy). Returns nullopt on corrupt input, a stale format
  /// version, structurally invalid tables, or a file whose stored graph
  /// fingerprint does not match `graph` — a hub-label file for a
  /// different (or since-updated) network is rejected, never loaded
  /// into service of wrong distances. The payload checksum is verified
  /// only under ArenaValidation::kFull.
  static std::optional<HubLabels> LoadMmap(
      const Graph& graph, const std::string& path,
      ArenaValidation validation = ArenaValidation::kHeaderOnly);

  /// The graph epoch the index was built (or loaded) at.
  GraphEpoch build_epoch() const { return build_epoch_; }

  /// Fingerprint of the graph the index was built against.
  const GraphFingerprint& fingerprint() const { return fingerprint_; }

  /// True iff the index still answers for `graph` exactly: same identity
  /// and no weight update has been applied since Build/LoadMmap. O(1);
  /// consulted by fann/dispatch for the stale-index query fallback.
  bool FreshFor(const Graph& graph) const {
    return build_epoch_ == graph.epoch() && fingerprint_ == graph.Fingerprint();
  }

 private:
  HubLabels() = default;

  Column<size_t> offsets_;  // per-vertex spans into entries_
  Column<Entry> entries_;
  GraphFingerprint fingerprint_;
  GraphEpoch build_epoch_ = 0;
  std::shared_ptr<void> arena_;  // keeps an mmap-backed file alive
};

}  // namespace fannr

#endif  // FANNR_SP_LABEL_HUB_LABELS_H_
