#include "testing/oracle.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "graph/vertex_set.h"
#include "sp/dijkstra.h"
#include "sp/incremental_nn.h"

namespace fannr::testing {

std::vector<std::vector<Weight>> OracleDistanceMatrix(
    const Graph& graph, const std::vector<VertexId>& p,
    const std::vector<VertexId>& q) {
  std::vector<std::vector<Weight>> matrix(q.size());
  DijkstraSearch search(graph);
  for (size_t qi = 0; qi < q.size(); ++qi) {
    matrix[qi] = search.Distances(q[qi], p);
  }
  return matrix;
}

Weight OracleGphi(const std::vector<std::vector<Weight>>& matrix, size_t pi,
                  size_t k, Aggregate aggregate) {
  std::vector<Weight> dists;
  dists.reserve(matrix.size());
  for (const auto& row : matrix) dists.push_back(row[pi]);
  FANNR_CHECK(k > 0 && k <= dists.size());
  std::sort(dists.begin(), dists.end());
  if (dists[k - 1] == kInfWeight) return kInfWeight;
  return FoldSorted(dists.data(), k, aggregate);
}

std::vector<OracleEntry> OracleRanking(const Graph& graph,
                                       const std::vector<VertexId>& p,
                                       const std::vector<VertexId>& q,
                                       double phi, Aggregate aggregate) {
  const auto matrix = OracleDistanceMatrix(graph, p, q);
  const size_t k = FlexK(phi, q.size());
  std::vector<OracleEntry> ranking;
  ranking.reserve(p.size());
  for (size_t pi = 0; pi < p.size(); ++pi) {
    const Weight d = OracleGphi(matrix, pi, k, aggregate);
    if (d != kInfWeight) ranking.push_back({p[pi], d});
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const OracleEntry& a, const OracleEntry& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.vertex < b.vertex;
            });
  return ranking;
}

std::vector<VertexId> SsspKernelMismatches(
    DijkstraSearch& search, const std::vector<VertexId>& sources,
    const std::vector<VertexId>& targets,
    std::span<const GphiBound> stops) {
  std::vector<VertexId> mismatched;
  std::vector<Weight> row;
  const auto same_bits = [](Weight a, Weight b) {
    return std::memcmp(&a, &b, sizeof(Weight)) == 0;
  };
  // Exact within the radius, beyond it everywhere else.
  const auto exact_within = [&](const std::vector<Weight>& want,
                                Weight radius) {
    bool ok = row.size() == want.size();
    for (size_t v = 0; ok && v < want.size(); ++v) {
      ok = want[v] <= radius ? same_bits(row[v], want[v]) : row[v] > radius;
    }
    return ok;
  };
  std::vector<Weight> folded;
  for (VertexId source : sources) {
    const std::vector<Weight> want = DijkstraSssp(search.graph(), source);
    search.SsspInto(source, row);
    bool ok = row.size() == want.size() &&
              std::memcmp(row.data(), want.data(),
                          want.size() * sizeof(Weight)) == 0;
    const Weight radius = search.SsspInto(source, targets, row);
    for (VertexId t : targets) ok = ok && want[t] <= radius;
    ok = ok && exact_within(want, radius);
    for (const GphiBound& stop : stops) {
      const Weight stop_radius = search.SsspInto(source, targets, row, stop);
      ok = ok && exact_within(want, stop_radius);
      const bool pruned =
          std::any_of(targets.begin(), targets.end(),
                      [&](VertexId t) { return want[t] > stop_radius; });
      if (!ok || !pruned) continue;
      // The source's g_phi from the reference row, folded smallest
      // first as SelectAndFold folds it.
      folded.clear();
      for (size_t i = 0; i < targets.size(); ++i) {
        const Weight d = want[targets[i]];
        folded.push_back(stop.weights.empty() ? d : d * stop.weights[i]);
      }
      std::sort(folded.begin(), folded.end());
      ok = PruneBoundExceeds(
          FoldSorted(folded.data(), stop.k, stop.aggregate), stop.bound);
    }
    if (!ok) mismatched.push_back(source);
  }
  return mismatched;
}

std::vector<VertexId> IneKernelMismatches(DijkstraSearch& search,
                                          const std::vector<VertexId>& p,
                                          const std::vector<VertexId>& q) {
  const Graph& graph = search.graph();
  std::vector<VertexId> mismatched;
  std::vector<Weight> row;
  using Hit = IncrementalNnSearch::Hit;
  const auto side = [&](const std::vector<VertexId>& sources,
                        const std::vector<VertexId>& target_list) {
    const IndexedVertexSet targets(graph.NumVertices(), target_list);
    std::vector<IncrementalNnSearch> searches;
    searches.reserve(sources.size());
    for (VertexId s : sources) searches.emplace_back(graph, s, targets);
    std::vector<std::vector<Hit>> hits(sources.size());
    for (bool progressed = true; progressed;) {
      progressed = false;
      for (size_t i = 0; i < searches.size(); ++i) {
        if (auto hit = searches[i].Next()) {
          hits[i].push_back(*hit);
          progressed = true;
        }
      }
    }
    for (size_t i = 0; i < sources.size(); ++i) {
      search.SsspInto(sources[i], row);
      std::vector<std::pair<Weight, VertexId>> want;
      for (VertexId t : target_list) {
        if (row[t] != kInfWeight) want.push_back({row[t], t});
      }
      std::sort(want.begin(), want.end());
      bool ok = hits[i].size() == want.size();
      for (size_t j = 0; ok && j < want.size(); ++j) {
        ok = hits[i][j].vertex == want[j].second &&
             std::memcmp(&hits[i][j].distance, &want[j].first,
                         sizeof(Weight)) == 0;
      }
      if (!ok) mismatched.push_back(sources[i]);
    }
  };
  side(p, q);
  side(q, p);
  return mismatched;
}

}  // namespace fannr::testing
