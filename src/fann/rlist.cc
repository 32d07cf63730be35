#include "fann/rlist.h"

#include <algorithm>
#include <span>
#include <vector>

#include "sp/incremental_nn.h"

namespace fannr {

FannResult SolveRList(const FannQuery& query, GphiEngine& engine) {
  return SolveRList(query, engine, RListOptions{});
}

FannResult SolveRList(const FannQuery& query, GphiEngine& engine,
                      const RListOptions& options) {
  ValidateQuery(query);
  const size_t k = query.FlexSubsetSize();
  engine.Prepare(*query.query_points);
  FANNR_CHECK(engine.BindWeights(query.WeightsSpan()) &&
              "engine cannot honor per-query-point weights");
  const std::span<const double> weights = query.WeightsSpan();

  // One list (switchable Dijkstra expansion over P) per query point.
  std::vector<IncrementalNnSearch> lists;
  lists.reserve(query.query_points->size());
  for (VertexId q : query.query_points->members()) {
    lists.emplace_back(*query.graph, q, *query.data_points);
  }

  std::vector<bool> evaluated(query.data_points->size(), false);
  std::vector<Weight> heads(lists.size());
  std::vector<Weight> scratch(lists.size());
  FannResult best;

  while (true) {
    // Gather heads; the threshold is the aggregate of the k smallest
    // (exhausted lists contribute +inf, which is still a valid lower
    // bound for unseen points: such points are unreachable from that
    // query point).
    size_t min_list = lists.size();
    Weight min_head = kInfWeight;
    for (size_t i = 0; i < lists.size(); ++i) {
      const auto* head = lists[i].Peek();
      heads[i] = head == nullptr ? kInfWeight : head->distance;
      // Weighted queries bound by w_i * head_i: for any unseen point p,
      // w_i * d(q_i, p) >= w_i * head_i (w_i > 0 by validation), so the
      // fold of the k smallest weighted heads still lower-bounds every
      // unevaluated g_phi. An exhausted list's +inf head stays +inf.
      if (!weights.empty() && heads[i] != kInfWeight) {
        heads[i] *= weights[i];
      }
      if (heads[i] < min_head) {
        min_head = heads[i];
        min_list = i;
      }
    }
    if (min_list == lists.size()) break;  // all lists exhausted

    if (options.use_threshold) {
      scratch = heads;
      std::nth_element(scratch.begin(), scratch.begin() + (k - 1),
                       scratch.end());
      Weight threshold;
      if (query.aggregate == Aggregate::kMax) {
        threshold = scratch[k - 1];
      } else {
        threshold = 0.0;
        for (size_t i = 0; i < k; ++i) threshold += scratch[i];
      }
      // threshold = +inf means fewer than k lists still have finite
      // heads, so no unevaluated point has finite g_phi: stopping is
      // exact (covers Q spanning several connected components).
      if (threshold == kInfWeight) break;
      // Margined and strict: an unevaluated point at (or within FP noise
      // of) best.distance can still win the vertex-id tie-break, and the
      // q-side threshold can overshoot the engine's p-side value by a
      // few ulps (see PruneBoundExceeds).
      if (PruneBoundExceeds(threshold, best.distance)) break;
    }

    const auto hit = lists[min_list].Next();
    const uint32_t p_index = query.data_points->IndexOf(hit->vertex);
    if (!evaluated[p_index]) {
      evaluated[p_index] = true;
      GphiResult r = engine.EvaluateBounded(hit->vertex, k, query.aggregate,
                                            best.distance);
      ++best.gphi_evaluations;
      if (r.distance < best.distance ||
          (r.distance != kInfWeight && r.distance == best.distance &&
           hit->vertex < best.best)) {
        best.best = hit->vertex;
        best.distance = r.distance;
        best.subset = std::move(r.subset);
      }
    }
  }
  return best;
}

}  // namespace fannr
