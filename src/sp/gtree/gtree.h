// G-tree: a hierarchical index for shortest-path distance and kNN queries
// on road networks (Zhong et al., CIKM'13 / TKDE'15).
//
// The road network is recursively partitioned into a balanced tree of
// subgraphs. Each leaf stores the within-leaf distances between its
// vertices and its borders; each internal node stores a distance matrix
// over the union of its children's borders ("occupants"). Matrices are
// assembled bottom-up over a border super-graph and then refined top-down
// with shortcut edges from the parent so that every internal matrix holds
// exact *global* network distances — this makes the distance query a
// simple min-plus sweep along the tree path between the two leaves (no
// detour cases to special-handle) and the kNN engine's bounds exact.
//
// Correctness sketch (see DESIGN.md): any shortest path from u to a border
// set decomposes at its first exit border, whose prefix lies entirely
// within the node — so within-leaf leaf matrices plus global internal
// matrices make the dynamic program exact in both directions.

#ifndef FANNR_SP_GTREE_GTREE_H_
#define FANNR_SP_GTREE_GTREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/column.h"
#include "graph/graph.h"

namespace fannr {

class ThreadPool;

/// Hierarchical road-network index; see file comment.
///
/// Thread-safety: the index is immutable after Build/LoadMmap. Distance,
/// WithinLeafDistances and the structure accessors keep all search state
/// in locals, so concurrent readers need no synchronization; SourceOracle
/// and GTreeKnn::Search carry their own per-instance state and should be
/// created one per thread.
class GTree {
 public:
  struct Options {
    /// Children per internal node (the paper's f = 4). Power of two.
    size_t fanout = 4;
    /// Maximum vertices per leaf (the paper's tau; 64-512 depending on
    /// graph size).
    size_t leaf_capacity = 64;
  };

  /// Tree node. Exposed (read-only) for the kNN engine and tests. The
  /// per-node arrays are Columns: owned vectors after Build, views into
  /// the mapped file after LoadMmap (graph/index_io.h).
  struct Node {
    int32_t parent = -1;
    uint32_t depth = 0;
    bool is_leaf = true;
    Column<int32_t> children;
    /// Leaf only: the vertices in this leaf.
    Column<VertexId> vertices;
    /// Border vertices: members with an edge leaving this node's subgraph.
    Column<VertexId> borders;
    /// Internal only: concatenation of children's border lists.
    Column<VertexId> occupants;
    /// Internal only: position of borders[i] within occupants.
    Column<uint32_t> border_occ_pos;
    /// Offset of this node's borders inside the parent's occupants.
    uint32_t occ_offset = 0;
    /// Leaf: |borders| x |vertices| within-leaf distances.
    /// Internal: |occupants| x |occupants| global network distances.
    Column<Weight> matrix;
    /// Leaves covered by this subtree: DFS leaf-order interval
    /// [leaf_begin, leaf_end).
    uint32_t leaf_begin = 0;
    uint32_t leaf_end = 0;

    size_t MatrixCols() const {
      return is_leaf ? vertices.size() : occupants.size();
    }
    Weight MatrixAt(size_t row, size_t col) const {
      return matrix[row * MatrixCols() + col];
    }
  };

  /// Builds the index. The graph must outlive the tree and must not be
  /// moved or destroyed while the tree exists (the tree stores a pointer
  /// into it). With a non-null `pool`, the expensive matrix phases (leaf
  /// matrices, per-depth-level bottom-up assembly and top-down
  /// refinement) fan over the pool's workers; each node's matrix is a
  /// pure function of already-complete inputs, so the result is bitwise
  /// identical to the sequential build.
  static GTree Build(const Graph& graph) { return Build(graph, Options{}); }
  static GTree Build(const Graph& graph, const Options& options,
                     ThreadPool* pool = nullptr);

  /// Exact network distance (kInfWeight if disconnected). Thread-safe.
  Weight Distance(VertexId u, VertexId v) const;

  // --- structure ----------------------------------------------------------

  const Graph& graph() const { return *graph_; }
  size_t NumTreeNodes() const { return nodes_.size(); }
  size_t NumLeaves() const { return num_leaves_; }
  int32_t root() const { return 0; }
  const Node& node(int32_t id) const { return nodes_[id]; }

  /// Leaf containing `v`.
  int32_t LeafOf(VertexId v) const { return leaf_of_[v]; }

  /// Index of `v` within its leaf's vertex list.
  uint32_t LeafPos(VertexId v) const { return leaf_pos_[v]; }

  /// Dijkstra restricted to the induced subgraph of `leaf`, from `source`
  /// (which must be in the leaf). Result is aligned with
  /// node(leaf).vertices; kInfWeight when unreachable within the leaf.
  std::vector<Weight> WithinLeafDistances(int32_t leaf,
                                          VertexId source) const;

  /// Approximate heap bytes held by the index (the paper's Fig. 9 metric).
  size_t MemoryBytes() const;

  /// One-to-many distance queries from a fixed source: the source-side
  /// sweep (distances from the source to the borders of every ancestor
  /// node) is computed once at construction, so each DistanceTo only pays
  /// for the target-side sweep and the LCA combine. Used by the IER-GTree
  /// g_phi engine, which verifies many targets against one candidate.
  class SourceOracle {
   public:
    SourceOracle(const GTree& tree, VertexId source);

    /// Exact network distance from the source to `target`.
    Weight DistanceTo(VertexId target) const;

    VertexId source() const { return source_; }

   private:
    const GTree& tree_;
    VertexId source_;
    int32_t source_leaf_;
    uint32_t leaf_depth_;
    std::vector<int32_t> path_;             // leaf, ..., root
    std::vector<std::vector<Weight>> du_;   // du_[i]: to borders of path_[i]
    std::vector<Weight> within_;            // within-leaf from source
  };

  /// Writes the arena cache file (graph/index_io.h; its header carries
  /// the source graph's fingerprint): the per-node arrays are flattened
  /// into per-field (prefix offsets, concatenated payload) section
  /// pairs, so LoadMmap can point every node's Columns into the mapping
  /// without copying. Returns false on I/O failure.
  bool Save(const std::string& path) const;

  /// Opens a Save file by mmap against the graph it was built for.
  /// Returns nullopt on corrupt input, a stale format version, or a
  /// graph-fingerprint mismatch (a file saved against a different or
  /// since-updated network is rejected). O(nodes) structural checks
  /// (prefix arrays monotone, matrix sizes consistent with
  /// border/occupant counts) keep queries on the views memory-safe; the
  /// payload checksum is verified only under ArenaValidation::kFull.
  static std::optional<GTree> LoadMmap(
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
  GTree() = default;

  void ComputeLeafMatrix(Node& leaf);
  void AssembleInternalMatrix(Node& node, bool refine);
  std::vector<Weight> WithinLeafDistancesImpl(const Node& leaf,
                                              VertexId source) const;

  const Graph* graph_ = nullptr;
  Options options_;
  std::vector<Node> nodes_;
  Column<int32_t> leaf_of_;    // per graph vertex
  Column<uint32_t> leaf_pos_;  // per graph vertex
  size_t num_leaves_ = 0;
  GraphFingerprint fingerprint_;
  GraphEpoch build_epoch_ = 0;
  std::shared_ptr<void> arena_;  // keeps an mmap-backed file alive
};

}  // namespace fannr

#endif  // FANNR_SP_GTREE_GTREE_H_
