#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "engine/batch_engine.h"
#include "fann/apx_sum.h"
#include "fann/dispatch.h"
#include "fann/exact_max.h"
#include "fann/gd.h"
#include "fann/ier.h"
#include "fann/kfann.h"
#include "fann/naive.h"
#include "fann/rlist.h"
#include "testing/oracle.h"

namespace fannr::testing {

namespace {

// Distances within this relative tolerance are "the same value" for
// cross-engine comparisons (different engines may accumulate the same
// shortest path in opposite orders). Bitwise equality is still required
// wherever the computation path is identical.
bool ApproxEqual(Weight a, Weight b) {
  if (a == b) return true;  // covers +inf == +inf
  const Weight scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

size_t BinomialCapped(size_t n, size_t k, size_t cap) {
  k = std::min(k, n - k);
  size_t result = 1;
  for (size_t i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
    if (result > cap) return cap + 1;
  }
  return result;
}

// Collects violation strings with a cap, so a totally broken solver
// does not flood the log.
class Report {
 public:
  explicit Report(size_t cap) : cap_(cap) {}

  void Add(const std::string& message) {
    if (violations_.size() < cap_) violations_.push_back(message);
    ++total_;
  }

  bool Failed() const { return total_ > 0; }

  std::vector<std::string> Take() && {
    if (total_ > violations_.size()) {
      std::ostringstream os;
      os << "... and " << (total_ - violations_.size())
         << " further violations suppressed";
      violations_.push_back(os.str());
    }
    return std::move(violations_);
  }

 private:
  size_t cap_;
  size_t total_ = 0;
  std::vector<std::string> violations_;
};

// Oracle state for one (scenario, aggregate) pair.
struct AggOracle {
  Aggregate aggregate;
  size_t k = 1;
  std::vector<OracleEntry> ranking;              // finite, (d, id) order
  std::unordered_map<VertexId, Weight> distance;  // every p, incl. inf
};

AggOracle BuildAggOracle(const Scenario& s,
                         const std::vector<std::vector<Weight>>& matrix,
                         Aggregate aggregate) {
  AggOracle oracle;
  oracle.aggregate = aggregate;
  oracle.k = FlexK(s.phi, s.q.size());
  for (size_t pi = 0; pi < s.p.size(); ++pi) {
    const Weight d = OracleGphi(matrix, pi, oracle.k, aggregate);
    oracle.distance[s.p[pi]] = d;
    if (d != kInfWeight) oracle.ranking.push_back({s.p[pi], d});
  }
  std::sort(oracle.ranking.begin(), oracle.ranking.end(),
            [](const OracleEntry& a, const OracleEntry& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.vertex < b.vertex;
            });
  return oracle;
}

// Everything the per-aggregate checks share.
struct CheckContext {
  const Scenario& s;
  const Graph& graph;
  const IndexedVertexSet& p_set;
  const IndexedVertexSet& q_set;
  const std::vector<std::vector<Weight>>& matrix;  // matrix[qi][pi]
  const AggOracle& oracle;
  const FannQuery& query;
  Report& report;

  std::string Label(const std::string& what) const {
    return "[" + std::string(AggregateName(oracle.aggregate)) + "] " + what;
  }

  // Index of a vertex within P / Q member vectors (or npos).
  size_t PIndex(VertexId v) const { return p_set.IndexOf(v); }
  size_t QIndex(VertexId v) const { return q_set.IndexOf(v); }
};

// Checks the tie-aware rank agreement of `got_vertex` at rank `i`. A
// vertex mismatch is a violation when the SOLVER itself considers the
// two candidates tied — then the deterministic id order was violated —
// or when the oracle distances differ beyond tolerance (the ranking is
// plain wrong). The solver's view of the tie comes from its reported
// distances: `solver_got` for the entry under test, `solver_want` for
// the oracle's pick where the caller has it (k-lists usually contain
// both). When solver_want is unknown, the solver is deemed tied only if
// its value agrees bitwise with a bitwise oracle tie. Anything else in
// the sub-tolerance band is FP noise — the oracle folds q-side Dijkstra
// distances while engines may accumulate the same paths in another
// order, so last-ulp disagreement about an exact tie is expected.
void CheckRankVertex(const CheckContext& ctx, VertexId got_vertex,
                     Weight solver_got, const Weight* solver_want, size_t i,
                     const std::string& label,
                     bool want_ranked_earlier = false) {
  const OracleEntry& want = ctx.oracle.ranking[i];
  if (got_vertex == want.vertex) return;
  auto it = ctx.oracle.distance.find(got_vertex);
  std::ostringstream os;
  if (it == ctx.oracle.distance.end() || it->second == kInfWeight) {
    os << ctx.Label(label) << ": rank " << i << " vertex " << got_vertex
       << " is not a reachable data point";
    ctx.report.Add(os.str());
    return;
  }
  // When the solver already ranked the oracle's pick ABOVE this rank the
  // lists are merely shifted by a near-tie elsewhere — any true ordering
  // defect in the solver's list is caught by its own adjacent
  // equal-distance check. Only the tolerance comparison remains.
  const bool solver_tie =
      !want_ranked_earlier &&
      (solver_want != nullptr
           ? *solver_want == solver_got
           : it->second == want.distance && solver_got == want.distance);
  if (solver_tie && got_vertex > want.vertex) {
    os << ctx.Label(label) << ": rank " << i << " tie broken against "
       << "vertex id order: got " << got_vertex << ", want " << want.vertex
       << " (both d=" << want.distance << ")";
    ctx.report.Add(os.str());
  } else if (!ApproxEqual(it->second, want.distance)) {
    os << ctx.Label(label) << ": rank " << i << " vertex " << got_vertex
       << " (oracle d=" << it->second << ") != " << want.vertex
       << " (oracle d=" << want.distance << ")";
    ctx.report.Add(os.str());
  }
}

// Validates one reported flexible subset against the oracle distance
// matrix: k distinct members of Q, nearest-first, folding to `distance`.
void CheckSubset(const CheckContext& ctx, VertexId vertex,
                 const std::vector<VertexId>& subset, Weight distance,
                 const std::string& label, bool nearest_first = true) {
  std::ostringstream os;
  const size_t pi = ctx.PIndex(vertex);
  if (pi == IndexedVertexSet::kNotMember) {
    os << ctx.Label(label) << ": result vertex " << vertex << " not in P";
    ctx.report.Add(os.str());
    return;
  }
  if (subset.size() != ctx.oracle.k) {
    os << ctx.Label(label) << ": subset size " << subset.size()
       << " != k=" << ctx.oracle.k;
    ctx.report.Add(os.str());
    return;
  }
  std::unordered_set<VertexId> seen;
  std::vector<Weight> dists;
  dists.reserve(subset.size());
  for (VertexId member : subset) {
    const size_t qi = ctx.QIndex(member);
    if (qi == IndexedVertexSet::kNotMember) {
      os << ctx.Label(label) << ": subset member " << member << " not in Q";
      ctx.report.Add(os.str());
      return;
    }
    if (!seen.insert(member).second) {
      os << ctx.Label(label) << ": duplicate subset member " << member;
      ctx.report.Add(os.str());
      return;
    }
    dists.push_back(ctx.matrix[qi][pi]);
  }
  if (nearest_first) {
    for (size_t i = 1; i < dists.size(); ++i) {
      if (dists[i] + 1e-9 < dists[i - 1]) {
        os << ctx.Label(label) << ": subset not nearest-first at position "
           << i << " (" << dists[i - 1] << " then " << dists[i] << ")";
        ctx.report.Add(os.str());
        return;
      }
    }
  }
  std::sort(dists.begin(), dists.end());
  const Weight fold =
      FoldSorted(dists.data(), dists.size(), ctx.oracle.aggregate);
  if (!ApproxEqual(fold, distance)) {
    os << ctx.Label(label) << ": subset folds to " << fold
       << " but result distance is " << distance;
    ctx.report.Add(os.str());
  }
}

void CheckSingleResult(const CheckContext& ctx, const FannResult& result,
                       const std::string& label,
                       bool nearest_first_subset = true) {
  std::ostringstream os;
  if (ctx.oracle.ranking.empty()) {
    if (result.best != kInvalidVertex || result.distance != kInfWeight) {
      os << ctx.Label(label) << ": expected 'no answer', got vertex "
         << result.best << " d=" << result.distance;
      ctx.report.Add(os.str());
    }
    return;
  }
  if (result.best == kInvalidVertex) {
    os << ctx.Label(label) << ": no answer, oracle optimum is vertex "
       << ctx.oracle.ranking[0].vertex
       << " d=" << ctx.oracle.ranking[0].distance;
    ctx.report.Add(os.str());
    return;
  }
  if (!ApproxEqual(result.distance, ctx.oracle.ranking[0].distance)) {
    os << ctx.Label(label) << ": d*=" << result.distance
       << " != oracle optimum " << ctx.oracle.ranking[0].distance;
    ctx.report.Add(os.str());
  }
  CheckRankVertex(ctx, result.best, result.distance, nullptr, 0, label);
  CheckSubset(ctx, result.best, result.subset, result.distance, label,
              nearest_first_subset);
}

void CheckKList(const CheckContext& ctx,
                const std::vector<KFannEntry>& got,
                const std::string& label) {
  std::ostringstream os;
  const size_t expected =
      std::min(ctx.s.k_results, ctx.oracle.ranking.size());
  if (got.size() != expected) {
    os << ctx.Label(label) << ": returned " << got.size() << " entries, "
       << "expected min(k_results=" << ctx.s.k_results
       << ", reachable=" << ctx.oracle.ranking.size() << ") = " << expected;
    ctx.report.Add(os.str());
  }
  std::unordered_set<VertexId> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!seen.insert(got[i].vertex).second) {
      os.str("");
      os << ctx.Label(label) << ": duplicate vertex " << got[i].vertex
         << " in result list";
      ctx.report.Add(os.str());
    }
    if (i > 0) {
      if (got[i].distance < got[i - 1].distance) {
        os.str("");
        os << ctx.Label(label) << ": list not sorted at rank " << i;
        ctx.report.Add(os.str());
      } else if (got[i].distance == got[i - 1].distance &&
                 got[i].vertex < got[i - 1].vertex) {
        os.str("");
        os << ctx.Label(label) << ": equal-distance entries not in vertex "
           << "id order at rank " << i;
        ctx.report.Add(os.str());
      }
    }
    if (i < ctx.oracle.ranking.size()) {
      if (!ApproxEqual(got[i].distance, ctx.oracle.ranking[i].distance)) {
        os.str("");
        os << ctx.Label(label) << ": rank " << i << " distance "
           << got[i].distance << " != oracle "
           << ctx.oracle.ranking[i].distance;
        ctx.report.Add(os.str());
      }
      // The solver's own distance for the oracle's pick, when the pick
      // appears later in this list (it usually does on a tie swap).
      const Weight* solver_want = nullptr;
      bool want_ranked_earlier = false;
      for (size_t j = 0; j < got.size(); ++j) {
        if (got[j].vertex == ctx.oracle.ranking[i].vertex) {
          if (j < i) {
            want_ranked_earlier = true;
          } else {
            solver_want = &got[j].distance;
          }
          break;
        }
      }
      CheckRankVertex(ctx, got[i].vertex, got[i].distance, solver_want, i,
                      label, want_ranked_earlier);
    }
    CheckSubset(ctx, got[i].vertex, got[i].subset, got[i].distance, label);
  }
}

// Strict equality of two k-FANN result lists computed along identical
// numeric paths (same g_phi engine kind): vertices, bitwise distances
// and subsets must match exactly.
void CompareListsStrict(const CheckContext& ctx,
                        const std::vector<KFannEntry>& a,
                        const std::vector<KFannEntry>& b,
                        const std::string& label) {
  std::ostringstream os;
  if (a.size() != b.size()) {
    os << ctx.Label(label) << ": list sizes differ (" << a.size() << " vs "
       << b.size() << ")";
    ctx.report.Add(os.str());
    return;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].vertex != b[i].vertex || a[i].distance != b[i].distance) {
      os.str("");
      os << ctx.Label(label) << ": rank " << i << " differs: ("
         << a[i].vertex << ", " << a[i].distance << ") vs (" << b[i].vertex
         << ", " << b[i].distance << ")";
      ctx.report.Add(os.str());
      return;
    }
    if (a[i].subset != b[i].subset) {
      os.str("");
      os << ctx.Label(label) << ": rank " << i << " subsets differ";
      ctx.report.Add(os.str());
      return;
    }
  }
}

bool SameFannResult(const FannResult& a, const FannResult& b) {
  return a.best == b.best && a.distance == b.distance &&
         a.subset == b.subset && a.gphi_evaluations == b.gphi_evaluations;
}

// Per-(engine kind, aggregate) solver sweep.
void CheckWithEngine(const CheckContext& ctx, GphiKind kind,
                     const RTree* p_tree) {
  GphiResources resources;
  resources.graph = &ctx.graph;
  auto engine = MakeGphiEngine(kind, resources);
  const std::string tag = std::string(GphiKindName(kind)) + "/";

  const FannResult gd = SolveGd(ctx.query, *engine);
  CheckSingleResult(ctx, gd, tag + "GD");
  const FannResult rlist = SolveRList(ctx.query, *engine);
  CheckSingleResult(ctx, rlist, tag + "R-List");
  if (gd.best != rlist.best || gd.distance != rlist.distance) {
    ctx.report.Add(ctx.Label(tag + "GD vs R-List: answers differ"));
  }

  const auto kgd = SolveKGd(ctx.query, ctx.s.k_results, *engine);
  CheckKList(ctx, kgd, tag + "k-GD");
  const auto krlist = SolveKRList(ctx.query, ctx.s.k_results, *engine);
  CheckKList(ctx, krlist, tag + "k-R-List");
  CompareListsStrict(ctx, kgd, krlist, tag + "k-GD vs k-R-List");

  if (p_tree != nullptr) {
    const FannResult ier = SolveIer(ctx.query, *engine, *p_tree);
    CheckSingleResult(ctx, ier, tag + "IER-kNN");
    if (gd.best != ier.best || gd.distance != ier.distance) {
      ctx.report.Add(ctx.Label(tag + "GD vs IER-kNN: answers differ"));
    }
    const auto kier = SolveKIer(ctx.query, ctx.s.k_results, *engine, *p_tree);
    CheckKList(ctx, kier, tag + "k-IER");
    CompareListsStrict(ctx, kgd, kier, tag + "k-GD vs k-IER");
  }

  // k-FANN prefix consistency: top-1 equals the FANN_R answer, and the
  // k-list is a prefix of a longer k-list (same engine, bitwise).
  if (!ctx.oracle.ranking.empty()) {
    if (kgd.empty() || kgd[0].vertex != gd.best ||
        kgd[0].distance != gd.distance) {
      ctx.report.Add(
          ctx.Label(tag + "k-GD top-1 != GD answer (prefix property)"));
    }
  }
  if (ctx.s.k_results > 1) {
    const size_t k_small = std::max<size_t>(1, ctx.s.k_results / 2);
    const auto prefix = SolveKGd(ctx.query, k_small, *engine);
    std::vector<KFannEntry> head(
        kgd.begin(),
        kgd.begin() +
            std::min<size_t>(kgd.size(), std::min(k_small, prefix.size())));
    if (prefix.size() !=
        std::min(k_small, ctx.oracle.ranking.size())) {
      ctx.report.Add(ctx.Label(tag + "k-GD prefix run has wrong size"));
    } else {
      CompareListsStrict(ctx, prefix, head,
                         tag + "k-GD prefix vs head of full list");
    }
  }
}

void CheckAggregate(const CheckContext& ctx,
                    const DifferentialOptions& options,
                    const RTree* p_tree) {
  // Naive subset-enumeration oracle (bitwise-independent second oracle).
  if (BinomialCapped(ctx.s.q.size(), ctx.oracle.k,
                     options.naive_subset_limit) <=
      options.naive_subset_limit) {
    CheckSingleResult(ctx, SolveNaive(ctx.query), "Naive",
                      /*nearest_first_subset=*/false);
  }

  for (GphiKind kind : options.engine_kinds) {
    CheckWithEngine(ctx, kind, p_tree);
  }

  if (ctx.oracle.aggregate == Aggregate::kMax && !ctx.query.Weighted()) {
    CheckSingleResult(ctx, SolveExactMax(ctx.query), "Exact-max");
    const auto kexact = SolveKExactMax(ctx.query, ctx.s.k_results);
    CheckKList(ctx, kexact, "k-Exact-max");
    if (!ctx.oracle.ranking.empty()) {
      const FannResult single = SolveExactMax(ctx.query);
      if (kexact.empty() || kexact[0].vertex != single.best ||
          kexact[0].distance != single.distance) {
        ctx.report.Add(
            ctx.Label("k-Exact-max top-1 != Exact-max answer"));
      }
    }
  }

  if (ctx.oracle.aggregate == Aggregate::kSum && !ctx.query.Weighted()) {
    GphiResources resources;
    resources.graph = &ctx.graph;
    auto engine = MakeGphiEngine(options.engine_kinds.empty()
                                     ? GphiKind::kIne
                                     : options.engine_kinds.front(),
                                 resources);
    const FannResult apx = SolveApxSum(ctx.query, *engine);
    std::ostringstream os;
    if (ctx.oracle.ranking.empty()) {
      if (apx.best != kInvalidVertex) {
        os << ctx.Label("APX-sum: answer on an instance with no reachable "
                        "candidate");
        ctx.report.Add(os.str());
      }
    } else {
      const Weight optimal = ctx.oracle.ranking[0].distance;
      if (apx.best == kInvalidVertex) {
        ctx.report.Add(ctx.Label("APX-sum: no answer, oracle has one"));
      } else {
        // Paper bound: <= 3x optimal, <= 2x when Q subset of P.
        bool q_in_p = true;
        for (VertexId v : ctx.s.q) q_in_p = q_in_p && ctx.p_set.Contains(v);
        const double bound = q_in_p ? 2.0 : 3.0;
        const Weight slack = 1e-9 * std::max<Weight>(1.0, optimal);
        if (apx.distance + slack < optimal) {
          os << ctx.Label("APX-sum: distance below optimum (") << apx.distance
             << " < " << optimal << ")";
          ctx.report.Add(os.str());
        } else if (apx.distance > bound * optimal + slack) {
          os << ctx.Label("APX-sum: approximation bound violated: ")
             << apx.distance << " > " << bound << " * " << optimal;
          ctx.report.Add(os.str());
        }
        CheckSubset(ctx, apx.best, apx.subset, apx.distance, "APX-sum");
      }
    }
  }

  if (options.check_invariants && !options.engine_kinds.empty()) {
    GphiResources resources;
    resources.graph = &ctx.graph;
    auto engine = MakeGphiEngine(options.engine_kinds.front(), resources);

    // phi-monotonicity of d*: nondecreasing in phi.
    std::vector<double> phis = {1.0 / static_cast<double>(ctx.s.q.size()),
                                0.5, ctx.s.phi, 1.0};
    std::sort(phis.begin(), phis.end());
    phis.erase(std::unique(phis.begin(), phis.end()), phis.end());
    Weight prev = -kInfWeight;
    double prev_phi = 0.0;
    for (double phi : phis) {
      if (!(phi > 0.0) || phi > 1.0) continue;
      FannQuery query = ctx.query;
      query.phi = phi;
      const Weight d = SolveGd(query, *engine).distance;
      if (d + 1e-9 * std::max<Weight>(1.0, std::fabs(prev)) < prev) {
        std::ostringstream os;
        os << ctx.Label("phi-monotonicity violated: d*(") << prev_phi
           << ")=" << prev << " > d*(" << phi << ")=" << d;
        ctx.report.Add(os.str());
      }
      prev = d;
      prev_phi = phi;
    }

    // Permutation invariance: reversing P and rotating Q must not change
    // any answer (deterministic tie-breaking is order-free).
    std::vector<VertexId> p_perm(ctx.s.p.rbegin(), ctx.s.p.rend());
    std::vector<VertexId> q_perm = ctx.s.q;
    if (q_perm.size() > 1) {
      std::rotate(q_perm.begin(), q_perm.begin() + 1, q_perm.end());
    }
    IndexedVertexSet p_set(ctx.graph.NumVertices(), p_perm);
    IndexedVertexSet q_set(ctx.graph.NumVertices(), q_perm);
    FannQuery permuted = ctx.query;
    permuted.data_points = &p_set;
    permuted.query_points = &q_set;
    std::vector<double> w_perm;
    if (ctx.query.Weighted()) {
      // Weights follow their query points through the rotation.
      w_perm = *ctx.query.weights;
      if (w_perm.size() > 1) {
        std::rotate(w_perm.begin(), w_perm.begin() + 1, w_perm.end());
      }
      permuted.weights = &w_perm;
    }
    const auto base = SolveKGd(ctx.query, ctx.s.k_results, *engine);
    const auto perm = SolveKGd(permuted, ctx.s.k_results, *engine);
    CompareListsStrict(ctx, base, perm,
                       "k-GD permutation invariance (P reversed, Q rotated)");
    const FannResult rl_base = SolveRList(ctx.query, *engine);
    const FannResult rl_perm = SolveRList(permuted, *engine);
    if (rl_base.best != rl_perm.best ||
        rl_base.distance != rl_perm.distance) {
      ctx.report.Add(ctx.Label("R-List permutation invariance violated"));
    }

    // Rerun invariance: same inputs, same process — identical output.
    const auto rerun = SolveKRList(ctx.query, ctx.s.k_results, *engine);
    const auto rerun2 = SolveKRList(ctx.query, ctx.s.k_results, *engine);
    CompareListsStrict(ctx, rerun, rerun2, "k-R-List rerun invariance");
  }
}

}  // namespace

std::vector<std::string> RunDifferentialChecks(
    const Scenario& scenario, const DifferentialOptions& options) {
  FANNR_CHECK(scenario.graph != nullptr);
  FANNR_CHECK(!scenario.p.empty() && !scenario.q.empty());
  const Graph& graph = *scenario.graph;
  Report report(options.max_violations);

  // Weighted scenarios: scale the oracle matrix to w_i * d(q_i, p) up
  // front. Every downstream check (oracle ranking, subset folds, rank
  // ties) then audits exactly the quantity the weighted solvers
  // compute — same doubles, same multiplication, bitwise-comparable.
  const bool weighted = !scenario.weights.empty();
  FANNR_CHECK(!weighted || scenario.weights.size() == scenario.q.size());
  const auto oracle_matrix = [&](const std::vector<VertexId>& q) {
    auto matrix = OracleDistanceMatrix(graph, scenario.p, q);
    for (size_t qi = 0; weighted && qi < matrix.size(); ++qi) {
      for (Weight& d : matrix[qi]) {
        if (d != kInfWeight) d *= scenario.weights[qi];
      }
    }
    return matrix;
  };

  IndexedVertexSet p_set(graph.NumVertices(), scenario.p);
  IndexedVertexSet q_set(graph.NumVertices(), scenario.q);
  const auto matrix = oracle_matrix(scenario.q);

  const bool geometric_ok =
      graph.HasCoordinates() && graph.EuclideanConsistent();
  std::optional<RTree> p_tree;
  if (geometric_ok) p_tree.emplace(BuildDataPointRTree(graph, p_set));

  std::vector<GphiKind> kinds;
  for (GphiKind kind : options.engine_kinds) {
    if (kind == GphiKind::kAStar && !geometric_ok) continue;
    // Weighted queries only run on engines whose BindWeights accepts —
    // the early-terminating kNN engines (INE, G-tree, IER) refuse.
    if (weighted && !GphiKindSupportsWeights(kind)) continue;
    kinds.push_back(kind);
  }
  DifferentialOptions effective = options;
  effective.engine_kinds = kinds;

  std::vector<Aggregate> aggregates;
  if (scenario.aggregates != AggregateMode::kSumOnly) {
    aggregates.push_back(Aggregate::kMax);
  }
  if (scenario.aggregates != AggregateMode::kMaxOnly) {
    aggregates.push_back(Aggregate::kSum);
  }

  // Batch jobs run on Q and on the shifted Q (ShiftedQuery), each
  // against its own oracle. The shifted jobs scan P in reverse, so they
  // first look up the sources the job before left most recently used —
  // the rows still resident, bounded by the other Q.
  Scenario shifted = scenario;
  shifted.q = ShiftedQuery(scenario);
  const IndexedVertexSet shifted_q_set(graph.NumVertices(), shifted.q);
  const IndexedVertexSet reversed_p_set(
      graph.NumVertices(),
      std::vector<VertexId>(scenario.p.rbegin(), scenario.p.rend()));
  std::vector<FannrQuery> batch_jobs;
  std::vector<const AggOracle*> batch_oracles;
  std::vector<AggOracle> oracles;
  std::vector<AggOracle> shifted_oracles;
  oracles.reserve(aggregates.size());
  shifted_oracles.reserve(aggregates.size());

  for (Aggregate aggregate : aggregates) {
    oracles.push_back(BuildAggOracle(scenario, matrix, aggregate));
  }
  {
    // The kernel's best-bounded rows stop on the oracle's best g_phi,
    // the bound a solver holds once it has met the answer.
    std::vector<GphiBound> stops;
    for (const AggOracle& oracle : oracles) {
      if (oracle.ranking.empty()) continue;
      stops.push_back({oracle.ranking.front().distance, oracle.k,
                       oracle.aggregate, scenario.weights});
    }
    DijkstraSearch search(graph);
    for (VertexId p :
         SsspKernelMismatches(search, scenario.p, scenario.q, stops)) {
      report.Add("[sssp] SsspInto row from p=" + std::to_string(p) +
                 " differs bitwise from DijkstraSssp");
    }
    for (VertexId v : IneKernelMismatches(search, scenario.p, scenario.q)) {
      report.Add("[ine] IncrementalNnSearch hits from " + std::to_string(v) +
                 " differ from the SsspInto row");
    }
  }
  if (options.check_batch) {
    const auto shifted_matrix = oracle_matrix(shifted.q);
    for (Aggregate aggregate : aggregates) {
      shifted_oracles.push_back(
          BuildAggOracle(shifted, shifted_matrix, aggregate));
    }
  }

  for (size_t ai = 0; ai < aggregates.size(); ++ai) {
    FannQuery query{&graph, &p_set, &q_set, scenario.phi, aggregates[ai]};
    if (weighted) query.weights = &scenario.weights;
    CheckContext ctx{scenario, graph,  p_set,      q_set,
                     matrix,   oracles[ai], query, report};
    CheckAggregate(ctx, effective,
                   geometric_ok && !weighted ? &p_tree.value() : nullptr);

    if (options.check_batch) {
      for (FannAlgorithm algorithm :
           {FannAlgorithm::kGd, FannAlgorithm::kRList, FannAlgorithm::kIer,
            FannAlgorithm::kExactMax, FannAlgorithm::kApxSum}) {
        if (!FannAlgorithmSupports(algorithm, aggregates[ai])) continue;
        if (algorithm == FannAlgorithm::kIer && !geometric_ok) continue;
        if (weighted && !FannAlgorithmSupportsWeights(algorithm)) continue;
        batch_jobs.push_back({query, algorithm});
        batch_oracles.push_back(&oracles[ai]);
        batch_jobs.push_back(batch_jobs.back());
        batch_jobs.back().query.data_points = &reversed_p_set;
        batch_jobs.back().query.query_points = &shifted_q_set;
        batch_oracles.push_back(&shifted_oracles[ai]);
      }
    }
  }

  // Batch engine: bitwise determinism across thread counts, answers
  // matching the oracle.
  if (options.check_batch && !batch_jobs.empty()) {
    GphiResources resources;
    resources.graph = &graph;
    BatchOptions single;
    single.num_threads = 1;
    // Small caches stay full, so their misses build rows bounded by Q,
    // narrow misses (a job on the shifted Q meeting a row bounded by Q)
    // and recycled rows — in a fixed order on one thread, in a
    // scheduling-dependent mix on several — against the full rows of
    // the single-threaded engine's roomy cache. Half of P leaves the
    // most resident rows bounded after a scan over P.
    BatchOptions single_small = single;
    single_small.cache_capacity = std::max<size_t>(1, scenario.p.size() / 2);
    BatchOptions multi = single;
    multi.num_threads = std::max<size_t>(2, options.batch_threads);
    multi.cache_capacity = 2;
    std::vector<FannResult> seq =
        BatchQueryEngine(resources, single).Run(batch_jobs);
    std::vector<BatchOptions> other_options = {single_small};
    if (options.check_multi_thread_batch) other_options.push_back(multi);
    std::vector<std::vector<FannResult>> others;
    for (const BatchOptions& other : other_options) {
      others.push_back(BatchQueryEngine(resources, other).Run(batch_jobs));
    }
    for (size_t i = 0; i < batch_jobs.size(); ++i) {
      const std::string name =
          std::string(FannAlgorithmName(batch_jobs[i].algorithm)) +
          (batch_jobs[i].query.query_points == &q_set ? "" : " shifted Q");
      for (size_t e = 0; e < others.size(); ++e) {
        if (!SameFannResult(seq[i], others[e][i])) {
          const BatchOptions& other = other_options[e];
          report.Add("[batch/" + name + "] T=" +
                     std::to_string(other.num_threads) + " on a " +
                     std::to_string(other.cache_capacity) +
                     "-entry cache differs from T=1 on a roomy cache");
        }
      }
      const AggOracle& oracle = *batch_oracles[i];
      const bool apx = batch_jobs[i].algorithm == FannAlgorithm::kApxSum;
      if (oracle.ranking.empty()) {
        if (seq[i].best != kInvalidVertex) {
          report.Add("[batch/" + name + "] answer on unreachable instance");
        }
      } else if (!apx &&
                 !ApproxEqual(seq[i].distance, oracle.ranking[0].distance)) {
        std::ostringstream os;
        os << "[batch/" << name << "] d*=" << seq[i].distance
           << " != oracle " << oracle.ranking[0].distance;
        report.Add(os.str());
      }
    }
  }

  return std::move(report).Take();
}

Scenario MinimizeScenario(const Scenario& scenario,
                          const DifferentialOptions& options,
                          size_t max_evaluations) {
  // Only deterministic violations count: one that only the
  // multi-threaded batch engine's scheduling produced may pass when the
  // minimized file is replayed.
  DifferentialOptions replayable = options;
  replayable.check_multi_thread_batch = false;
  size_t evaluations = 0;
  auto fails = [&](const Scenario& candidate) {
    if (evaluations >= max_evaluations) return false;
    ++evaluations;
    return !RunDifferentialChecks(candidate, replayable).empty();
  };
  if (!fails(scenario)) return scenario;

  Scenario best = scenario;

  // Narrow the aggregate mode first: halves all later checker work.
  if (best.aggregates == AggregateMode::kBoth) {
    for (AggregateMode mode :
         {AggregateMode::kMaxOnly, AggregateMode::kSumOnly}) {
      Scenario candidate = best;
      candidate.aggregates = mode;
      if (fails(candidate)) {
        best = candidate;
        break;
      }
    }
  }

  // Dropping the weights keeps the repro simpler whenever the failure
  // is not actually weight-dependent.
  if (!best.weights.empty()) {
    Scenario candidate = best;
    candidate.weights.clear();
    if (fails(candidate)) best = std::move(candidate);
  }

  // Then shrink k_results.
  for (size_t k : {size_t{1}, size_t{2}, best.k_results / 2}) {
    if (k == 0 || k >= best.k_results) continue;
    Scenario candidate = best;
    candidate.k_results = k;
    if (fails(candidate)) {
      best = candidate;
      break;
    }
  }

  // Greedy member removal: chunks first, then singletons, until a fixed
  // point (or the evaluation budget runs out).
  bool changed = true;
  while (changed && evaluations < max_evaluations) {
    changed = false;
    for (std::vector<VertexId> Scenario::*member :
         {&Scenario::p, &Scenario::q}) {
      std::vector<VertexId>& items = best.*member;
      for (size_t chunk = std::max<size_t>(1, items.size() / 2); chunk >= 1;
           chunk /= 2) {
        for (size_t start = 0;
             start < (best.*member).size() && evaluations < max_evaluations;) {
          std::vector<VertexId>& current = best.*member;
          if (current.size() <= 1) break;
          const size_t len = std::min(chunk, current.size() - start);
          Scenario candidate = best;
          std::vector<VertexId>& cut = candidate.*member;
          cut.erase(cut.begin() + start, cut.begin() + start + len);
          if (member == &Scenario::q && !candidate.weights.empty()) {
            // Weights stay aligned with Q through every cut.
            candidate.weights.erase(candidate.weights.begin() + start,
                                    candidate.weights.begin() + start + len);
          }
          if (!cut.empty() && fails(candidate)) {
            best = std::move(candidate);
            changed = true;
          } else {
            start += len;
          }
        }
        if (chunk == 1) break;
      }
    }
  }

  best.note += " (minimized)";
  return best;
}

std::string DescribeScenario(const Scenario& scenario) {
  std::ostringstream os;
  os << "seed=" << scenario.seed;
  if (!scenario.note.empty()) os << " " << scenario.note;
  os << " |V|=" << (scenario.graph ? scenario.graph->NumVertices() : 0)
     << " |P|=" << scenario.p.size() << " |Q|=" << scenario.q.size()
     << " phi=" << scenario.phi << " k_results=" << scenario.k_results;
  if (!scenario.weights.empty()) os << " weighted";
  return os.str();
}

}  // namespace fannr::testing
