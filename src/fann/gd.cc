#include "fann/gd.h"

namespace fannr {

FannResult SolveGd(const FannQuery& query, GphiEngine& engine) {
  ValidateQuery(query);
  const size_t k = query.FlexSubsetSize();
  engine.Prepare(*query.query_points);
  FANNR_CHECK(engine.BindWeights(query.WeightsSpan()) &&
              "engine cannot honor per-query-point weights");

  FannResult best;
  for (VertexId p : query.data_points->members()) {
    // A p that cannot beat the running best may come back pruned
    // (distance kInfWeight), which the test below skips like an
    // unreachable one.
    GphiResult r =
        engine.EvaluateBounded(p, k, query.aggregate, best.distance);
    ++best.gphi_evaluations;
    if (r.distance == kInfWeight) continue;
    // Canonical (distance, vertex id) order: exact-distance ties go to
    // the smaller vertex id, independent of P's iteration order.
    if (r.distance < best.distance ||
        (r.distance == best.distance && p < best.best)) {
      best.best = p;
      best.distance = r.distance;
      best.subset = std::move(r.subset);
    }
  }
  return best;
}

}  // namespace fannr
