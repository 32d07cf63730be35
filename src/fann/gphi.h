// The flexible aggregate function g_phi(p, Q) and its pluggable engines.
//
// g_phi takes a candidate data point p and returns the optimal flexible
// subset Q^p_phi (the k = phi|Q| query points nearest to p) together with
// the aggregate distance (Definition 1). The paper implements g_phi seven
// ways (Table I):
//
//   INE        incremental network expansion (Dijkstra-based kNN)
//   A*         one A* point-to-point search per query point
//   GTree      occurrence-list kNN over the G-tree index
//   PHL        one hub-label scan per query point
//   IER-A*     R-tree over Q: incremental Euclidean NN verified by A*
//   IER-GTree  same, verified by G-tree distances
//   IER-PHL    same, verified by hub-label distances
//
// plus our CH extension (one contraction-hierarchy query per query
// point). An engine is prepared once per FANN_R query (so it can build
// per-Q state such as the occurrence lists or the R-tree over Q) and then
// evaluated for many candidate points.

#ifndef FANNR_FANN_GPHI_H_
#define FANNR_FANN_GPHI_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "fann/aggregate.h"
#include "graph/graph.h"
#include "graph/vertex_set.h"
#include "sp/ch/contraction_hierarchy.h"
#include "sp/gtree/gtree.h"
#include "sp/label/hub_labels.h"

namespace fannr {

/// Result of one g_phi evaluation: the flexible aggregate distance and
/// the optimal flexible subset (k query points, nearest first). When
/// fewer than k query points are reachable from p, distance is kInfWeight
/// and subset holds the reachable prefix.
struct GphiResult {
  Weight distance = kInfWeight;
  std::vector<VertexId> subset;
};

/// Pluggable implementation of g_phi. Prepare() is called once per FANN_R
/// query before any Evaluate(). Engines are not thread-safe (they own
/// per-query state and search scratch), but they only read their shared
/// substrate indexes — concurrent execution uses one engine per thread
/// over one GphiResources (see src/engine/).
class GphiEngine {
 public:
  virtual ~GphiEngine() = default;

  /// Binds the engine to the query set Q (builds per-Q structures such as
  /// occurrence lists or an R-tree over Q). `query_points` must stay alive
  /// until the next Prepare().
  virtual void Prepare(const IndexedVertexSet& query_points) = 0;

  /// Computes g_phi(p, Q) with subset size k. Requires a prior Prepare().
  virtual GphiResult Evaluate(VertexId p, size_t k, Aggregate aggregate) = 0;

  /// Evaluate for a caller that only needs g_phi(p, Q) when p can still
  /// beat `bound` (its running best, or k-th best): returns either
  /// Evaluate's exact result or, when the engine has shown
  /// PruneBoundExceeds(lower bound, bound) and so g_phi(p, Q) > bound,
  /// {kInfWeight, {}}, which every solver treats as "cannot win". A p
  /// at exactly the bound is never pruned, so the (distance, vertex id)
  /// tie-break sees it. The default forwards to Evaluate.
  virtual GphiResult EvaluateBounded(VertexId p, size_t k,
                                     Aggregate aggregate, Weight bound) {
    (void)bound;
    return Evaluate(p, k, aggregate);
  }

  /// Binds per-query-point weights (aligned with the Prepare()d Q) so
  /// subsequent Evaluate() calls select and fold w_i * d(p, q_i) instead
  /// of raw distances. Call after Prepare() (which clears any previous
  /// binding); an empty span means unweighted. Returns false when the
  /// engine cannot honor a non-empty binding — the early-terminating
  /// kNN engines (INE, G-tree occurrence lists, the IER family) prune by
  /// raw network distance and would silently drop weighted-near points,
  /// so they refuse instead of answering wrong. `weights` must outlive
  /// the binding.
  virtual bool BindWeights(std::span<const double> weights) {
    return weights.empty();
  }

  /// Grows the engine's search scratch (heaps, distance arrays) to its
  /// worst-case size up front, trading memory for an allocation-free
  /// solve phase from the very first query. Optional: the default does
  /// nothing, and engines stay correct either way — they grow lazily on
  /// demand. Never affects results.
  virtual void PrewarmScratch() {}

  /// Display name matching the paper's legends (e.g. "IER-PHL").
  virtual std::string_view name() const = 0;
};

/// The g_phi implementations of Table I (+ the CH extension).
enum class GphiKind {
  kIne,
  kAStar,
  kGTree,
  kPhl,
  kIerAStar,
  kIerGTree,
  kIerPhl,
  kCh,
};

/// All kinds in Table I order (CH last).
inline constexpr GphiKind kAllGphiKinds[] = {
    GphiKind::kIne,      GphiKind::kAStar,    GphiKind::kGTree,
    GphiKind::kPhl,      GphiKind::kIerAStar, GphiKind::kIerGTree,
    GphiKind::kIerPhl,   GphiKind::kCh,
};

/// Paper legend name of a kind.
std::string_view GphiKindName(GphiKind kind);

/// Substrate indexes an engine may need. `graph` is always required; the
/// index pointers are only required for the kinds that use them (Table I)
/// and may be null otherwise. All pointees are read-only shared state:
/// engines never mutate them, and one GphiResources value may back any
/// number of concurrently-running engines (each engine owns its own
/// search scratch).
struct GphiResources {
  const Graph* graph = nullptr;
  const GTree* gtree = nullptr;                 // GTree / IER-GTree
  const HubLabels* labels = nullptr;            // PHL / IER-PHL
  const ContractionHierarchy* ch = nullptr;     // CH
};

/// Creates an engine. Aborts if a required resource is missing.
std::unique_ptr<GphiEngine> MakeGphiEngine(GphiKind kind,
                                           const GphiResources& resources);

namespace internal_gphi {

/// Reusable scratch for SelectAndFold. Engines that evaluate many
/// candidates hold one of these so the per-candidate selection runs
/// allocation-free after the first call.
struct SelectScratch {
  /// Contiguous (distance, id) records: the selection sorts these
  /// directly instead of permuting an index array, so the comparator
  /// touches one flat array instead of gathering from two.
  struct Entry {
    Weight distance;
    VertexId vertex;
  };
  std::vector<Entry> entries;
  std::vector<Weight> nearest;  // the k selected distances, contiguous
};

/// Shared helper: given the distances from p to every member of Q
/// (aligned with query_points.members()), selects the k nearest and
/// folds. `scratch` may be null (a local scratch is used); passing an
/// engine-owned scratch makes repeat calls allocation-free. A non-empty
/// `weights` (aligned with Q) scales each distance to w_i * d_i before
/// selection, so both the chosen subset and the fold are weighted.
GphiResult SelectAndFold(const IndexedVertexSet& query_points,
                         const std::vector<Weight>& distances, size_t k,
                         Aggregate aggregate,
                         SelectScratch* scratch = nullptr,
                         std::span<const double> weights = {});

}  // namespace internal_gphi

}  // namespace fannr

#endif  // FANNR_FANN_GPHI_H_
