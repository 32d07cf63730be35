// Brute-force FANN_R oracle for differential testing.
//
// Computes the full candidate ranking from first principles — one
// Dijkstra per query point, then a per-candidate select-and-fold — with
// the canonical deterministic tie order (ascending distance, then
// ascending vertex id). Every solver's output is checked against this
// ranking by src/testing/differential.cc. Deliberately independent of
// the solver code paths it audits: it shares only the graph, Dijkstra,
// FlexK and FoldSorted primitives.

#ifndef FANNR_TESTING_ORACLE_H_
#define FANNR_TESTING_ORACLE_H_

#include <span>
#include <vector>

#include "fann/aggregate.h"
#include "graph/graph.h"
#include "sp/dijkstra.h"

namespace fannr::testing {

/// One ranked candidate: a data point with finite flexible aggregate
/// distance (unreachable candidates are excluded from the ranking).
struct OracleEntry {
  VertexId vertex = kInvalidVertex;
  Weight distance = kInfWeight;
};

/// All distances from each query point to each data point:
/// matrix[qi][pi] = d(q[qi], p[pi]).
std::vector<std::vector<Weight>> OracleDistanceMatrix(
    const Graph& graph, const std::vector<VertexId>& p,
    const std::vector<VertexId>& q);

/// g_phi(p[pi], Q) with subset size k, from a precomputed matrix.
Weight OracleGphi(const std::vector<std::vector<Weight>>& matrix, size_t pi,
                  size_t k, Aggregate aggregate);

/// The complete candidate ranking by (distance, vertex id), finite
/// entries only. The k-FANN_R answer of size r is the first
/// min(r, size()) entries; the FANN_R answer is the front (or "no
/// answer" when empty).
std::vector<OracleEntry> OracleRanking(const Graph& graph,
                                       const std::vector<VertexId>& p,
                                       const std::vector<VertexId>& q,
                                       double phi, Aggregate aggregate);

/// The members of `sources` whose DijkstraSearch::SsspInto rows (run on
/// `search`, reused across sources) disagree in any bit with the
/// heap-based DijkstraSssp reference. Two rows per source, plus one per
/// member of `stops`: the full row must equal the reference; the row
/// bounded by `targets` must serve every target (reference distance <=
/// its radius), equal the reference on every vertex within the radius
/// and exceed the radius everywhere else. A best-bounded row (bounded
/// by `targets` and a stop, whose weights align with `targets`) must
/// hold the same radius property, and may leave a target beyond its
/// radius only when the reference g_phi of the source exceeds the
/// stop's bound (PruneBoundExceeds), so a source at exactly the bound
/// is never pruned. The solver checks compare distances with a 1e-9
/// relative tolerance, which cannot see last-ulp drift in the cache's
/// miss-path kernel; this check can.
std::vector<VertexId> SsspKernelMismatches(
    DijkstraSearch& search, const std::vector<VertexId>& sources,
    const std::vector<VertexId>& targets,
    std::span<const GphiBound> stops = {});

/// The members of `p` and of `q` whose IncrementalNnSearch hit lists
/// disagree with SsspInto rows (run on `search`): drained, a search from
/// each p over Q, and from each q over P, must report exactly the
/// reachable targets in (distance, vertex id) order, each at the row's
/// distance bit for bit. The searches of one side are live at once and
/// advanced round-robin, as Exact-max and R-List advance theirs. `p` and
/// `q` must each hold distinct vertices.
std::vector<VertexId> IneKernelMismatches(DijkstraSearch& search,
                                          const std::vector<VertexId>& p,
                                          const std::vector<VertexId>& q);

}  // namespace fannr::testing

#endif  // FANNR_TESTING_ORACLE_H_
