// Incremental network expansion (INE): a resumable Dijkstra expansion that
// reports members of a target set from-near-to-far.
//
// This single primitive powers four of the paper's components:
//   * the INE implementation of g_phi (kNN from a candidate p over Q),
//   * the per-query-point lists of the R-List algorithm (Section III-B),
//   * the multi-source switchable expansion of Exact-max (Algorithm 2),
//   * the 1-NN lookups of APX-sum (Algorithm 3).
//
// The paper's "switchable" implementation detail — all search state is
// preserved when a queue is switched away from and resumed later — is
// exactly what this class provides: each instance owns its frontier and
// its labels and can be advanced one reported target at a time.
//
// Labels live in dense arrays. Every thread keeps one grow-only
// `vertex -> local id` numbering (8 B x |V| of the largest graph it has
// searched), shared by all searches live on that thread: a vertex gets
// the next free id the first time any of them touches it.
// Each search keeps its own label array indexed by local id, grown
// lazily up to the number of ids handed out so far, so a relaxation
// costs two array loads. The numbering starts afresh (an O(1) epoch
// bump) whenever the thread's last live search is destroyed, which
// scopes ids to one solve: a search's labels are O(vertices its solve
// has touched), not O(|V|), and the paper's O(|Q||V|) worst case for
// |Q| concurrent searches still holds. The thread also parks each
// destroyed search's frontier and hands it to the next search, so warm
// solves run without growing any heap.
//
// A search must be used and destroyed on the thread that created it.

#ifndef FANNR_SP_INCREMENTAL_NN_H_
#define FANNR_SP_INCREMENTAL_NN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_heap.h"
#include "graph/graph.h"
#include "graph/vertex_set.h"

namespace fannr {

/// Resumable from-near-to-far enumeration of a target set.
class IncrementalNnSearch {
 public:
  /// A reported target: `vertex` is in the target set and `distance` is
  /// its exact network distance from the source. Successive hits have
  /// nondecreasing distances.
  struct Hit {
    VertexId vertex;
    Weight distance;
  };

  /// Starts an expansion from `source`. `graph` and `targets` must
  /// outlive the search.
  IncrementalNnSearch(const Graph& graph, VertexId source,
                      const IndexedVertexSet& targets);
  ~IncrementalNnSearch();

  /// A moved-from search is exhausted: Next() returns nullopt.
  IncrementalNnSearch(IncrementalNnSearch&& other) noexcept;
  IncrementalNnSearch& operator=(IncrementalNnSearch&& other) noexcept;
  IncrementalNnSearch(const IncrementalNnSearch&) = delete;
  IncrementalNnSearch& operator=(const IncrementalNnSearch&) = delete;

  /// Returns the next nearest unreported target, or nullopt when all
  /// reachable targets have been reported.
  std::optional<Hit> Next();

  /// Returns the next hit without consuming it (nullptr when exhausted).
  /// This is the "head of the queue" of the paper's R-List / Exact-max:
  /// peeking advances the underlying expansion until the next target is
  /// settled, and the result is buffered for the following Next().
  const Hit* Peek();

  /// Number of vertices settled so far (exposition / benchmarking aid).
  size_t settled_count() const { return settled_count_; }

  VertexId source() const { return source_; }

 private:
  struct ThreadState;
  static ThreadState& ThisThread();

  // Advances the Dijkstra expansion until one more target is settled.
  std::optional<Hit> FindNextTarget();

  // Parks the frontier with the thread and drops this search from its
  // live count; no-op on a moved-from search.
  void Release();

  struct HeapEntry {
    Weight dist;
    VertexId vertex;
    uint32_t id;  // the vertex's local id: no numbering lookup on pop
  };
  struct DistLess {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.dist < b.dist;
    }
  };

  const Graph* graph_;
  const IndexedVertexSet* targets_;
  VertexId source_;
  ThreadState* thread_;  // null once moved from
  uint32_t frontier_slot_;
  FlatHeap<HeapEntry, DistLess> frontier_;
  // By local id: +inf unreached, >= 0 tentative, -d - 1 settled at d.
  std::vector<Weight> labels_;
  std::optional<Hit> buffered_;
  size_t settled_count_ = 0;
  bool exhausted_ = false;
};

}  // namespace fannr

#endif  // FANNR_SP_INCREMENTAL_NN_H_
