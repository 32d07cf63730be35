// Dijkstra's algorithm: single-source shortest paths, point-to-point
// queries, and SSSP with per-vertex parents. The reusable DijkstraSearch
// object amortizes scratch-array allocation across queries (important when
// an FANN_R algorithm evaluates g_phi for thousands of candidate points).
//
// Every kernel here runs on the 4-ary FlatHeap except
// DijkstraSearch::SsspInto, the full-row kernel behind the distance
// cache's miss path, which steps the BucketQueue (sp/bucket_queue.h)
// that IncrementalNnSearch steps too. DijkstraSssp stays heap-based: it
// is the reference the bucket queue is tested against.

#ifndef FANNR_SP_DIJKSTRA_H_
#define FANNR_SP_DIJKSTRA_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_heap.h"
#include "common/timestamped.h"
#include "fann/aggregate.h"
#include "graph/graph.h"
#include "sp/bucket_queue.h"

namespace fannr {

/// Full single-source shortest path distances (kInfWeight = unreachable).
std::vector<Weight> DijkstraSssp(const Graph& graph, VertexId source);

/// SSSP result with shortest-path-tree parents (kInvalidVertex for the
/// source and unreachable vertices).
struct SsspTree {
  std::vector<Weight> dist;
  std::vector<VertexId> parent;
};

/// Full SSSP with parents.
SsspTree DijkstraSsspTree(const Graph& graph, VertexId source);

/// Shortest path as a vertex sequence [source, ..., target] (empty when
/// target is unreachable; [source] when source == target). Runs a
/// point-to-point Dijkstra with parent tracking and early termination.
std::vector<VertexId> ShortestPath(const Graph& graph, VertexId source,
                                   VertexId target);

/// A caller's stop rule for the bounded SsspInto: the caller folds the
/// k smallest w_i * d(source, targets[i]) with `aggregate` (g_phi, see
/// fann/gphi.h) and only needs the row while that fold can still be at
/// most `bound`. `weights` is aligned with the targets; empty means
/// every w_i is 1. The default never stops a search.
struct GphiBound {
  Weight bound = kInfWeight;
  size_t k = 1;
  Aggregate aggregate = Aggregate::kMax;
  std::span<const double> weights;
};

/// Reusable Dijkstra engine bound to one graph. Not thread-safe; create
/// one per thread.
class DijkstraSearch {
 public:
  explicit DijkstraSearch(const Graph& graph);

  /// Network distance from `source` to `target` (kInfWeight if
  /// unreachable). Terminates as soon as `target` is settled.
  Weight Distance(VertexId source, VertexId target);

  /// Network distances from `source` to every vertex in `targets`
  /// (aligned with `targets`). Terminates once all reachable targets are
  /// settled.
  std::vector<Weight> Distances(VertexId source,
                                const std::vector<VertexId>& targets);

  /// Full SSSP from `source` written into `out` (resized to |V|;
  /// kInfWeight = unreachable). Equivalent to DijkstraSssp but reuses
  /// this object's scratch, so a worker thread running many sources only
  /// allocates the output. The result is identical (bit for bit) to
  /// DijkstraSssp for a given graph and source, whichever search object
  /// ran it.
  ///
  /// The frontier is the BucketQueue, shaped by graph().bucket_shape():
  /// buckets of width w_min drained in any order, or the heap when the
  /// ring would exceed |V| slots. A drained entry with d > out[u] is
  /// stale and skipped; a vertex improved again after its scan is pushed
  /// and scanned again.
  ///
  /// Why the row is bitwise DijkstraSssp's: weights are > 0 and
  /// floating-point addition rounds monotonically (a <= b implies
  /// fl(a + w) <= fl(b + w)). Every label is the left-folded sum of
  /// some path, and a vertex's last improvement is always scanned, so
  /// on exit out[v] <= fl(out[u] + w(u, v)) for every arc. By induction
  /// along any path, out[v] is then the minimum over paths of the
  /// folded sum — the one fixed point that the heap's settle order
  /// reaches too. Settle order cannot change a bit, and neither can the
  /// queue's mode, which depends on the weights alone.
  void SsspInto(VertexId source, std::vector<Weight>& out);

  /// Bounded form of SsspInto: runs the same queue from `source` but
  /// stops once every member of `targets` has its final label, and
  /// returns a radius r. Afterwards every vertex v with true distance
  /// d(v) <= r holds out[v] == d(v), bit for bit as in DijkstraSssp, and
  /// every other vertex holds out[v] > r (a tentative label or
  /// kInfWeight); every target is among the former. Duplicate targets
  /// and the source itself are allowed. r is kInfWeight, and `out` is
  /// the full row, when a target is unreachable or the queue empties
  /// first.
  ///
  /// r is the largest distance below the queue's lower bound between
  /// steps, BucketQueue::Radius (sp/bucket_queue.h says why a label
  /// there is final).
  ///
  /// Best-bounded rows: with a finite `stop.bound` the search also stops,
  /// at the same check points and with the same radius rule, once the
  /// k-subset lower bound at radius r exceeds the bound, i.e.
  /// PruneBoundExceeds(lb, stop.bound). lb is the fold of the k smallest
  /// of w_i * min(out[t_i], r): a target within r holds its final
  /// label, one beyond r has true distance > r. Such a row leaves some
  /// target beyond its radius, which is how a caller tells it was
  /// pruned; within r it is as exact as any other bounded row. While
  /// (k for sum, 1 for max) * max w_i * r cannot exceed the bound only
  /// that O(1) test runs, not the O(|targets|) fold. With the default
  /// `stop` the row is the one above, bit for bit.
  ///
  /// Why a pruned p never changes a solver's answer: the values folded
  /// are the exact w_i * d_i or smaller ones (w_i > 0, rounding is
  /// monotone), and they are summed smallest first, as SelectAndFold
  /// sums the true k nearest, so every partial sum, and lb, is at most
  /// the g_phi(p) a full row gives, bit for bit. A pruned p thus has
  /// g_phi(p) > bound * (1 + 1e-12) >= bound: it loses to a candidate
  /// at the bound outright, even one with a larger vertex id, and a p
  /// at exactly the bound (which could still win the tie-break) is
  /// never pruned.
  Weight SsspInto(VertexId source, std::span<const VertexId> targets,
                  std::vector<Weight>& out, const GphiBound& stop = {});

  /// Grows the frontier to the worst case of a full search up front:
  /// lazy-deletion Dijkstra pushes once per strict improvement, at most
  /// NumArcs() + 1 times, so after this call no search on this object
  /// regrows the queue (a weight update that widens the ring regrows its
  /// slots). Costs O(NumArcs()) bytes of address space; pages are
  /// touched only as the frontier reaches them. Called by batch workers at
  /// construction so the solve phase is allocation-free from the first
  /// query.
  void ReserveFullSearch();

  const Graph& graph() const { return graph_; }

 private:
  // Full row when `targets` is null; otherwise the bounded search,
  // returning its radius.
  Weight SsspRow(VertexId source, const std::span<const VertexId>* targets,
                 const GphiBound& stop, std::vector<Weight>& out);
  // True when the k-subset lower bound of `stop` at radius r exceeds
  // its bound (see the bounded SsspInto).
  bool Prunes(std::span<const VertexId> targets, const GphiBound& stop,
              const std::vector<Weight>& out, Weight radius);

  const Graph& graph_;
  TimestampedArray<Weight> dist_;
  TimestampedArray<uint8_t> settled_;
  // Persistent frontiers: clear() keeps capacity, so steady-state
  // queries run with zero heap allocations.
  FlatHeap<std::pair<Weight, VertexId>> heap_;  // Distance(s)
  BucketQueue queue_;                           // SsspInto
  std::vector<Weight> fold_;  // Prunes' k-subset values
};

}  // namespace fannr

#endif  // FANNR_SP_DIJKSTRA_H_
