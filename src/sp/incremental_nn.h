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
// The frontier is the BucketQueue that SsspInto steps too
// (sp/bucket_queue.h), shaped by Graph::bucket_shape(). A search drains
// one bucket (heap mode: one distance) at a time and collects the
// targets it scans; it reports a target once its label is final by the
// queue's lower bound, the bounded SsspInto's rule, so hits come out in
// (distance, vertex id) order in both modes.
//
// Labels live in dense arrays. Every thread keeps one grow-only
// `vertex -> local id` numbering (8 B x |V| of the largest graph it has
// searched), shared by its live searches: a vertex gets the next free
// id when any of them first touches it, and each search indexes its own
// label array, grown lazily, by that id. The numbering starts afresh (an
// O(1) epoch bump) when the thread's last live search is destroyed, so
// a search's labels are O(vertices its solve touched), not O(|V|). The
// thread also parks each destroyed search's frontier for the next
// search, so warm solves grow no heap and build no ring.
//
// A search must be used and destroyed on the thread that created it.

#ifndef FANNR_SP_INCREMENTAL_NN_H_
#define FANNR_SP_INCREMENTAL_NN_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_heap.h"
#include "graph/graph.h"
#include "graph/vertex_set.h"
#include "sp/bucket_queue.h"

namespace fannr {

/// Resumable from-near-to-far enumeration of a target set.
class IncrementalNnSearch {
 public:
  /// A reported target: `vertex` is in the target set and `distance` is
  /// its exact network distance from the source, bit for bit
  /// DijkstraSssp's. Hits come out in (distance, vertex id) order.
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
  /// final, and the result is buffered for the following Next().
  const Hit* Peek();

  VertexId source() const { return source_; }

 private:
  struct ThreadState;
  static ThreadState& ThisThread();

  // Advances the expansion until one more target is final.
  std::optional<Hit> FindNextTarget();

  // Parks the frontier with the thread and drops this search from its
  // live count; no-op on a moved-from search.
  void Release();

  // What a search parks with its thread: the queue, and the scanned
  // targets (distance, vertex) that wait for their labels to be final.
  struct Frontier {
    BucketQueue queue;
    FlatHeap<std::pair<Weight, VertexId>> found;
  };

  const Graph* graph_;
  const IndexedVertexSet* targets_;
  VertexId source_;
  ThreadState* thread_;  // null once moved from
  uint32_t frontier_slot_;
  Frontier frontier_;
  std::vector<Weight> labels_;  // by local id; +inf unreached
  std::optional<Hit> buffered_;
  bool exhausted_ = false;
};

}  // namespace fannr

#endif  // FANNR_SP_INCREMENTAL_NN_H_
