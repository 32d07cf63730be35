#include "fann/apx_sum.h"

#include <vector>

#include "fann/gd.h"
#include "sp/incremental_nn.h"

namespace fannr {

FannResult SolveApxSum(const FannQuery& query, GphiEngine& engine) {
  ValidateQuery(query);
  FANNR_CHECK(!query.Weighted() &&
              "APX-sum's bound proof folds raw distances and cannot honor "
              "per-query-point weights");
  FANNR_CHECK(query.aggregate == Aggregate::kSum &&
              "APX-sum's approximation guarantee holds for sum-FANN_R");

  // Candidate set: the network 1-NN in P of each query point (Algorithm 3
  // lines 2-4). Different query points often share a nearest data point,
  // so the candidate set is usually smaller than |Q|. Dedup through a
  // flag per member of P.
  std::vector<VertexId> candidates;
  std::vector<bool> seen(query.data_points->size(), false);
  candidates.reserve(query.query_points->size());
  for (VertexId q : query.query_points->members()) {
    IncrementalNnSearch nn(*query.graph, q, *query.data_points);
    auto hit = nn.Next();
    if (!hit.has_value()) continue;  // q reaches no data point
    const uint32_t index = query.data_points->IndexOf(hit->vertex);
    if (!seen[index]) {
      seen[index] = true;
      candidates.push_back(hit->vertex);
    }
  }
  if (candidates.empty()) return FannResult{};

  // Exact FANN_R over the reduced candidate set (Algorithm 3 line 5).
  IndexedVertexSet candidate_set(query.graph->NumVertices(),
                                 std::move(candidates));
  FannQuery reduced = query;
  reduced.data_points = &candidate_set;
  return SolveGd(reduced, engine);
}

}  // namespace fannr
