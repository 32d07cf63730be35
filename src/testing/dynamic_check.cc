#include "testing/dynamic_check.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "common/rng.h"
#include "dynamic/update.h"
#include "engine/batch_engine.h"
#include "engine/cached_sssp.h"
#include "fann/dispatch.h"
#include "graph/builder.h"
#include "testing/oracle.h"

namespace fannr::testing {

namespace {

bool ApproxEqual(Weight a, Weight b) {
  if (a == b) return true;  // covers +inf == +inf
  const Weight scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

class Report {
 public:
  explicit Report(size_t cap) : cap_(cap) {}

  void Add(const std::string& message) {
    if (violations_.size() < cap_) violations_.push_back(message);
    ++total_;
  }

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

std::vector<Aggregate> AggregatesOf(const Scenario& s) {
  switch (s.aggregates) {
    case AggregateMode::kMaxOnly:
      return {Aggregate::kMax};
    case AggregateMode::kSumOnly:
      return {Aggregate::kSum};
    case AggregateMode::kBoth:
      break;
  }
  return {Aggregate::kMax, Aggregate::kSum};
}

// Tie-aware oracle agreement: the answer's distance must match the
// oracle optimum, and the answered vertex must be one of the candidates
// achieving it (fp-equal distances are legitimate alternative answers
// across engines; the strict (d, id) order is enforced separately where
// computation paths are identical).
void CheckAgainstOracle(const std::vector<OracleEntry>& ranking,
                        const FannResult& result, const std::string& label,
                        Report& report) {
  std::ostringstream os;
  if (result.status != QueryStatus::kOk) {
    os << label << ": status not ok (" << result.error << ")";
    report.Add(os.str());
    return;
  }
  if (ranking.empty()) {
    if (result.best != kInvalidVertex || result.distance != kInfWeight) {
      os << label << ": oracle says no answer, solver returned v"
         << result.best << " at d=" << result.distance;
      report.Add(os.str());
    }
    return;
  }
  if (result.best == kInvalidVertex) {
    os << label << ": solver returned no answer, oracle optimum is v"
       << ranking.front().vertex << " at d=" << ranking.front().distance;
    report.Add(os.str());
    return;
  }
  if (!ApproxEqual(result.distance, ranking.front().distance)) {
    os << label << ": distance " << result.distance
       << " != oracle optimum " << ranking.front().distance
       << " (stale data served?)";
    report.Add(os.str());
    return;
  }
  const bool best_is_optimal = std::any_of(
      ranking.begin(), ranking.end(), [&](const OracleEntry& e) {
        return e.vertex == result.best &&
               ApproxEqual(e.distance, ranking.front().distance);
      });
  if (!best_is_optimal) {
    os << label << ": answered v" << result.best
       << " which does not achieve the oracle optimum d="
       << ranking.front().distance;
    report.Add(os.str());
  }
}

bool BitwiseEqual(const FannResult& a, const FannResult& b) {
  return a.status == b.status && a.best == b.best &&
         a.distance == b.distance && a.subset == b.subset;
}

}  // namespace

std::vector<std::string> RunDynamicUpdateChecks(
    const Scenario& scenario, const DynamicCheckOptions& options) {
  Report report(options.max_violations);
  Graph graph = GraphBuilder::FromGraph(*scenario.graph).Build();
  if (graph.NumEdges() == 0) return {};  // nothing dynamic to exercise

  const IndexedVertexSet p_set(graph.NumVertices(), scenario.p);
  const IndexedVertexSet q_set(graph.NumVertices(), scenario.q);
  // The batch engines also answer every job on the shifted Q, so their
  // small caches serve one source to two Qs across waves.
  const std::vector<VertexId> shifted_q = ShiftedQuery(scenario);
  const IndexedVertexSet shifted_q_set(graph.NumVertices(), shifted_q);
  const std::vector<Aggregate> aggregates = AggregatesOf(scenario);

  GphiResources resources;
  resources.graph = &graph;

  // Index built at the initial epoch for the stale-fallback checks.
  std::optional<HubLabels> epoch0_labels;
  GphiResources phl_resources;
  std::unique_ptr<BatchQueryEngine> phl_engine;
  if (options.check_stale_index_fallback) {
    epoch0_labels = HubLabels::Build(graph);
    if (epoch0_labels.has_value()) {
      phl_resources.graph = &graph;
      phl_resources.labels = &*epoch0_labels;
      BatchOptions phl_options;
      phl_options.num_threads = 2;
      phl_options.gphi_kind = GphiKind::kPhl;
      phl_options.enable_metrics = true;  // the fallback trace annotation
      phl_engine =
          std::make_unique<BatchQueryEngine>(phl_resources, phl_options);
    }
  }

  // A cached engine and its shared cache survive every wave: the
  // cache-poisoning check. Entries inserted at epoch e must never serve
  // a query at epoch e' != e.
  auto cache = std::make_shared<SourceDistanceCache>(/*capacity=*/128,
                                                     /*num_shards=*/4);
  CachedSsspEngine cached_engine(graph, cache);

  // Persistent batch engines (cached-SSSP oracle, shared cache each).
  // The caches hold four entries, so they stay full across waves and
  // mix rows bounded by Q with full ones.
  std::vector<std::unique_ptr<BatchQueryEngine>> batch_engines;
  for (size_t threads : options.batch_thread_counts) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.cache_capacity = 4;
    batch_engines.push_back(
        std::make_unique<BatchQueryEngine>(resources, bo));
  }

  // One search object for the kernel checks of every wave: each row
  // takes the bucket shape the graph keeps for the current epoch.
  DijkstraSearch kernel_search(graph);

  Rng rng(scenario.seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);

  for (size_t wave = 0; wave <= options.num_waves; ++wave) {
    const std::string wave_label = "wave " + std::to_string(wave);
    if (wave > 0) {
      dynamic::UpdateBatch batch = dynamic::MakeCongestionWave(
          graph, options.update_fraction, options.min_factor,
          options.max_factor, rng);
      if (batch.empty()) {
        // Tiny graphs can dodge the sampling; force one real update so
        // every wave bumps the epoch.
        for (VertexId u = 0; u < graph.NumVertices() && batch.empty(); ++u) {
          for (const Arc& a : graph.Neighbors(u)) {
            batch.ScaleWeight(graph, u, a.to, 1.5);
            break;
          }
        }
      }
      const bool cache_was_populated = cache->size() > 0;
      const auto cache_stats_before = cache->stats();
      const dynamic::ApplyResult applied = batch.Apply(graph);
      if (applied.applied == 0) {
        report.Add(wave_label + ": congestion wave applied no updates");
        continue;
      }
      if (applied.new_epoch != applied.old_epoch + 1) {
        std::ostringstream os;
        os << wave_label << ": expected one epoch bump, got "
           << applied.old_epoch << " -> " << applied.new_epoch;
        report.Add(os.str());
      }

      // Cache-poisoning regression: entries from the previous epoch must
      // be reclaimed (not served) on the first post-update solves below.
      if (cache_was_populated) {
        FannQuery probe{&graph, &p_set, &q_set, scenario.phi,
                        aggregates.front()};
        (void)SolveWith(FannAlgorithm::kGd, probe, cached_engine);
        const auto cache_stats_after = cache->stats();
        if (cache_stats_after.epoch_evictions <=
            cache_stats_before.epoch_evictions) {
          report.Add(wave_label +
                     ": cache held entries across the epoch bump but "
                     "reported no epoch evictions");
        }
      }
    }

    // The kernel's best-bounded rows stop on each aggregate's oracle
    // optimum at this epoch.
    std::vector<std::vector<OracleEntry>> rankings;
    std::vector<GphiBound> stops;
    for (Aggregate aggregate : aggregates) {
      rankings.push_back(OracleRanking(graph, scenario.p, scenario.q,
                                       scenario.phi, aggregate));
      if (rankings.back().empty()) continue;
      stops.push_back({rankings.back().front().distance,
                       FlexK(scenario.phi, scenario.q.size()), aggregate,
                       {}});
    }
    for (VertexId p : SsspKernelMismatches(kernel_search, scenario.p,
                                              scenario.q, stops)) {
      report.Add(wave_label + ": SsspInto row from p=" + std::to_string(p) +
                 " differs bitwise from DijkstraSssp");
    }
    for (VertexId v :
         IneKernelMismatches(kernel_search, scenario.p, scenario.q)) {
      report.Add(wave_label + ": IncrementalNnSearch hits from " +
                 std::to_string(v) + " differ from the SsspInto row");
    }

    for (size_t ai = 0; ai < aggregates.size(); ++ai) {
      const Aggregate aggregate = aggregates[ai];
      const std::string label =
          wave_label + " [" + std::string(AggregateName(aggregate)) + "]";
      const std::vector<OracleEntry>& ranking = rankings[ai];
      FannQuery query{&graph, &p_set, &q_set, scenario.phi, aggregate};

      // Sequential index-free reference.
      auto ine = MakeGphiEngine(GphiKind::kIne, resources);
      const FannResult ine_result =
          SolveWith(FannAlgorithm::kGd, query, *ine);
      CheckAgainstOracle(ranking, ine_result, label + " GD/INE", report);

      // Persistent cached engine: correct against the post-update oracle
      // even though its cache saw every earlier epoch.
      const FannResult cached_result =
          SolveWith(FannAlgorithm::kGd, query, cached_engine);
      CheckAgainstOracle(ranking, cached_result, label + " GD/Cached-SSSP",
                         report);

      // Persistent batch engines: correct, and bitwise identical across
      // thread counts (same Cached-SSSP computation path everywhere).
      FannQuery shifted_query = query;
      shifted_query.query_points = &shifted_q_set;
      const auto shifted_ranking = OracleRanking(
          graph, scenario.p, shifted_q, scenario.phi, aggregate);
      std::vector<FannrQuery> jobs;
      for (const FannQuery& q : {query, shifted_query}) {
        jobs.push_back({q, FannAlgorithm::kGd});
        if (FannAlgorithmSupports(FannAlgorithm::kRList, aggregate)) {
          jobs.push_back({q, FannAlgorithm::kRList});
        }
      }
      const auto job_name = [&](const FannrQuery& job) {
        return std::string(FannAlgorithmName(job.algorithm)) +
               (job.query.query_points == &q_set ? "" : " shifted Q");
      };
      std::vector<std::vector<FannResult>> per_engine;
      for (size_t e = 0; e < batch_engines.size(); ++e) {
        per_engine.push_back(batch_engines[e]->Run(jobs));
        const auto& results = per_engine.back();
        for (size_t j = 0; j < results.size(); ++j) {
          CheckAgainstOracle(
              jobs[j].query.query_points == &q_set ? ranking
                                                   : shifted_ranking,
              results[j],
              label + " batch T=" +
                  std::to_string(options.batch_thread_counts[e]) + " " +
                  job_name(jobs[j]),
              report);
        }
        if (e > 0) {
          for (size_t j = 0; j < results.size(); ++j) {
            if (!BitwiseEqual(per_engine[0][j], results[j])) {
              std::ostringstream os;
              os << label << " batch " << job_name(jobs[j]) << ": T="
                 << options.batch_thread_counts[e]
                 << " result differs bitwise from T="
                 << options.batch_thread_counts[0];
              report.Add(os.str());
            }
          }
        }
      }

      // Stale-index fallback: the PHL-configured engine must diagnose
      // its epoch-0 index, solve index-free, and stay correct.
      if (phl_engine != nullptr) {
        const std::string stale_reason =
            StaleIndexReason(GphiKind::kPhl, phl_resources);
        if (wave == 0 && !stale_reason.empty()) {
          report.Add(label + ": fresh index misdiagnosed as stale (" +
                     stale_reason + ")");
        }
        if (wave > 0 && stale_reason.empty()) {
          report.Add(label +
                     ": index predating the update diagnosed as fresh");
        }
        const std::vector<FannrQuery> phl_jobs{{query, FannAlgorithm::kGd}};
        const auto phl_results = phl_engine->Run(phl_jobs);
        CheckAgainstOracle(ranking, phl_results[0],
                           label + " stale-index engine", report);
        const auto& traces = phl_engine->last_traces();
        if (!traces.empty() &&
            traces[0].stale_index_fallback != (wave > 0)) {
          report.Add(label + ": trace stale_index_fallback is " +
                     (traces[0].stale_index_fallback ? "set" : "unset") +
                     " but the index is " + (wave > 0 ? "stale" : "fresh"));
        }
        const auto& batch_report = phl_engine->last_report();
        if (wave > 0 && batch_report.stale_index_fallbacks == 0) {
          report.Add(label +
                     ": report counted no stale-index fallbacks after an "
                     "update");
        }
      }
    }
  }

  // Post-rebuild indexed path: a fresh index on the final weights is
  // fresh again and agrees with the oracle.
  if (options.check_rebuilt_index) {
    auto rebuilt = HubLabels::Build(graph);
    if (rebuilt.has_value()) {
      GphiResources fresh;
      fresh.graph = &graph;
      fresh.labels = &*rebuilt;
      const std::string reason = StaleIndexReason(GphiKind::kPhl, fresh);
      if (!reason.empty()) {
        report.Add("rebuilt index still diagnosed stale: " + reason);
      }
      auto phl = MakeGphiEngine(GphiKind::kPhl, fresh);
      for (Aggregate aggregate : aggregates) {
        const auto ranking = OracleRanking(graph, scenario.p, scenario.q,
                                           scenario.phi, aggregate);
        FannQuery query{&graph, &p_set, &q_set, scenario.phi, aggregate};
        const FannResult result = SolveWith(FannAlgorithm::kGd, query, *phl);
        CheckAgainstOracle(ranking, result,
                           std::string("rebuilt [") +
                               std::string(AggregateName(aggregate)) +
                               "] GD/PHL",
                           report);
      }
    }
  }

  return std::move(report).Take();
}

}  // namespace fannr::testing
