#include "fann/exact_max.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/flat_heap.h"
#include "sp/incremental_nn.h"

namespace fannr {

namespace {

// Core of Algorithm 2: multi-source expansion with counters. Returns the
// first data point whose counter reaches k together with its arrivals
// (sorted by (distance, query id), nearest first) and the saturating
// distance; best stays kInvalidVertex when no counter saturates. When
// several counters saturate at the same distance, the smallest vertex id
// wins — the canonical (distance, id) order shared with the other
// solvers.
struct Saturation {
  VertexId best = kInvalidVertex;
  Weight distance = kInfWeight;
  std::vector<VertexId> arrivals;
};

Saturation RunCounters(const FannQuery& query, size_t k) {
  std::vector<IncrementalNnSearch> lists;
  lists.reserve(query.query_points->size());
  for (VertexId q : query.query_points->members()) {
    lists.emplace_back(*query.graph, q, *query.data_points);
  }

  // Global queue over list heads: pops occur in nondecreasing distance.
  // One per thread, so warm solves do not grow it.
  using Head = std::pair<Weight, uint32_t>;  // (head distance, list index)
  thread_local FlatHeap<Head> heads;
  heads.clear();
  heads.reserve(lists.size());
  for (uint32_t i = 0; i < lists.size(); ++i) {
    const auto* head = lists[i].Peek();
    if (head != nullptr) heads.push({head->distance, i});
  }

  // arrival = (distance from its query point, query point id), kept per
  // data point by its member index.
  using Arrival = std::pair<Weight, VertexId>;
  std::vector<std::vector<Arrival>> arrivals(query.data_points->size());
  while (!heads.empty()) {
    // Drain the whole plateau at distance d before deciding: equal-
    // distance pops arrive in an order that depends on Q's iteration
    // order, so the first counter to saturate within the plateau is not
    // deterministic — but the *set* of saturations at distance d is.
    const Weight d = heads.top().first;
    VertexId best = kInvalidVertex;
    while (!heads.empty() && heads.top().first == d) {
      const uint32_t i = heads.top().second;
      heads.pop();
      const auto hit = lists[i].Next();
      FANNR_DCHECK(hit.has_value());
      auto& arrived = arrivals[query.data_points->IndexOf(hit->vertex)];
      arrived.push_back({hit->distance, lists[i].source()});
      if (arrived.size() >= k && hit->vertex < best) best = hit->vertex;
      const auto* next = lists[i].Peek();
      if (next != nullptr) heads.push({next->distance, i});
    }
    if (best != kInvalidVertex) {
      // k-th arrival: exact answer (max over the k nearest sources = the
      // plateau distance d).
      std::vector<Arrival>& arrived =
          arrivals[query.data_points->IndexOf(best)];
      std::sort(arrived.begin(), arrived.end());
      Saturation sat;
      sat.best = best;
      sat.distance = d;
      sat.arrivals.reserve(k);
      for (size_t i = 0; i < k; ++i) sat.arrivals.push_back(arrived[i].second);
      return sat;
    }
  }
  return {};  // fewer than k query points reach any data point
}

}  // namespace

FannResult SolveExactMax(const FannQuery& query) {
  ValidateQuery(query);
  FANNR_CHECK(!query.Weighted() &&
              "Exact-max's saturation counters pop by raw distance and "
              "cannot honor per-query-point weights");
  FANNR_CHECK(query.aggregate == Aggregate::kMax &&
              "Exact-max answers max-FANN_R only (see the paper's sum "
              "counterexample, Table II)");
  Saturation sat = RunCounters(query, query.FlexSubsetSize());
  FannResult result;
  if (sat.best == kInvalidVertex) return result;
  result.best = sat.best;
  result.distance = sat.distance;
  result.subset = std::move(sat.arrivals);
  result.gphi_evaluations = 0;  // implicit in the arrival bookkeeping
  return result;
}

FannResult SolveExactMax(const FannQuery& query, GphiEngine& engine) {
  ValidateQuery(query);
  FANNR_CHECK(!query.Weighted());
  FANNR_CHECK(query.aggregate == Aggregate::kMax);
  const size_t k = query.FlexSubsetSize();
  Saturation sat = RunCounters(query, k);
  FannResult result;
  if (sat.best == kInvalidVertex) return result;
  engine.Prepare(*query.query_points);
  GphiResult r = engine.Evaluate(sat.best, k, Aggregate::kMax);
  result.best = sat.best;
  result.distance = r.distance;
  result.subset = std::move(r.subset);
  result.gphi_evaluations = 1;  // Algorithm 2 line 8
  return result;
}

}  // namespace fannr
