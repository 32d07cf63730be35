#include "engine/batch_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/timer.h"
#include "fann/ier.h"

namespace fannr {

namespace {

/// Lock stripes of the shared distance cache.
constexpr size_t kCacheShards = 16;

/// Screens one job against the engine's graph and configuration. Empty
/// string = runnable. `gphi_kind` is the engine's configured oracle
/// (nullopt = cached SSSP, always weight-capable) and `stale_fallback`
/// whether this batch runs on the index-free fallback engines.
std::string JobValidationError(const FannrQuery& job, const Graph* graph,
                               const std::optional<GphiKind>& gphi_kind,
                               bool stale_fallback) {
  std::string error = QueryValidationError(job.query);
  if (!error.empty()) return error;
  if (job.query.graph != graph) {
    return "query.graph does not match the engine's graph";
  }
  if (!FannAlgorithmSupports(job.algorithm, job.query.aggregate)) {
    return std::string(FannAlgorithmName(job.algorithm)) +
           " does not support aggregate " +
           std::string(AggregateName(job.query.aggregate));
  }
  if (job.query.Weighted()) {
    // Weighted jobs are screened here rather than aborting later on the
    // solvers' BindWeights check: an externally-assembled batch must see
    // a per-job rejection, never a process abort.
    if (!FannAlgorithmSupportsWeights(job.algorithm)) {
      return std::string(FannAlgorithmName(job.algorithm)) +
             " does not support per-query-point weights";
    }
    if (gphi_kind.has_value() && !GphiKindSupportsWeights(*gphi_kind)) {
      return std::string(GphiKindName(*gphi_kind)) +
             " engines do not support per-query-point weights";
    }
    if (stale_fallback) {
      return "weighted query cannot run on the stale-index fallback "
             "engine (" +
             std::string(GphiKindName(kFallbackGphiKind)) +
             " terminates early on raw distances) — rebuild the index or "
             "re-submit after it is fresh";
    }
  }
  return std::string();
}

FannResult RejectedResult(const std::string& error) {
  FannResult result;
  result.status = QueryStatus::kRejected;
  result.error = error;
  return result;
}

FannResult TimedOutResult(const std::string& error) {
  FannResult result;
  result.status = QueryStatus::kTimedOut;
  result.error = error;
  return result;
}

}  // namespace

std::string MidBatchEpochError(GraphEpoch admitted, GraphEpoch now) {
  return "graph epoch advanced mid-batch (admitted at epoch " +
         std::to_string(admitted) + ", now " + std::to_string(now) +
         "): result would mix weights from different epochs — re-submit "
         "the query";
}

BatchQueryEngine::BatchQueryEngine(const GphiResources& resources,
                                   const BatchOptions& options)
    : resources_(resources),
      options_(options),
      pool_(options.num_threads) {
  FANNR_CHECK(resources_.graph != nullptr);
  const bool cached_oracle = !options_.gphi_kind.has_value();
  if (cached_oracle && options_.share_distance_cache) {
    size_t capacity = options_.cache_capacity;
    if (capacity == 0) {
      const size_t entry_bytes =
          std::max<size_t>(1, resources_.graph->NumVertices()) *
          sizeof(Weight);
      capacity =
          std::max<size_t>(1, options_.cache_memory_budget_bytes / entry_bytes);
    }
    // One spare row per worker: each worker computes at most one row
    // at a time.
    cache_ = std::make_shared<SourceDistanceCache>(
        capacity, kCacheShards, pool_.num_workers());
  }
  worker_engines_.reserve(pool_.num_workers());
  cached_engines_.reserve(pool_.num_workers());
  for (size_t i = 0; i < pool_.num_workers(); ++i) {
    worker_engines_.push_back(MakeWorkerEngine());
    cached_engines_.push_back(
        cached_oracle ? static_cast<CachedSsspEngine*>(
                            worker_engines_.back().get())
                      : nullptr);
  }
  if (options_.gphi_kind.has_value() &&
      GphiKindUsesIndex(*options_.gphi_kind)) {
    // The configured oracle can go stale under weight updates; keep an
    // index-free engine per worker ready so a stale batch still runs.
    fallback_engines_.reserve(pool_.num_workers());
    for (size_t i = 0; i < pool_.num_workers(); ++i) {
      fallback_engines_.push_back(
          MakeGphiEngine(kFallbackGphiKind, resources_));
    }
  }

  // Grow every worker's search scratch (notably the Dijkstra frontier,
  // up to NumArcs() + 1 entries) to its worst case now, so the solve
  // phase never regrows a heap: construction is where allocation
  // happens, Run() is allocation-free and deterministic in its
  // allocation behavior (the throughput gate asserts heap_grows_solve
  // == 0 per cell).
  for (auto& engine : worker_engines_) engine->PrewarmScratch();
  for (auto& engine : fallback_engines_) engine->PrewarmScratch();

  if (options_.enable_metrics) {
    metrics_ = std::make_unique<obs::MetricsRegistry>(pool_.num_workers());
    m_queries_ = metrics_->RegisterCounter("engine.queries");
    m_rejected_ = metrics_->RegisterCounter("engine.rejected_queries");
    m_timed_out_ = metrics_->RegisterCounter("engine.timed_out_queries");
    m_solve_ms_ = metrics_->RegisterHistogram("engine.solve_ms",
                                              obs::DefaultLatencyBucketsMs());
    m_dispatch_wait_ms_ = metrics_->RegisterHistogram(
        "engine.dispatch_wait_ms", obs::DefaultLatencyBucketsMs());
    m_cache_entries_ = metrics_->RegisterGauge("cache.resident_entries");
    CachedSsspEngine::MetricHandles cache_handles;
    cache_handles.cache_hits = metrics_->RegisterCounter("cache.hits");
    cache_handles.cache_misses = metrics_->RegisterCounter("cache.misses");
    cache_handles.cache_epoch_evictions =
        metrics_->RegisterCounter("cache.epoch_evictions");
    cache_handles.sssp_compute_ms = metrics_->RegisterHistogram(
        "cache.sssp_compute_ms", obs::DefaultLatencyBucketsMs());
    slow_log_ = std::make_unique<obs::SlowQueryLog>(
        options_.slow_query_log_capacity, options_.slow_query_threshold_ms);
    tracing_engines_.reserve(pool_.num_workers());
    for (size_t i = 0; i < pool_.num_workers(); ++i) {
      tracing_engines_.push_back(
          std::make_unique<obs::TracingGphiEngine>(*worker_engines_[i]));
      if (cached_engines_[i] != nullptr) {
        cached_engines_[i]->PublishMetrics(metrics_.get(), cache_handles, i);
      }
    }
    fallback_tracing_.reserve(fallback_engines_.size());
    for (const auto& fallback : fallback_engines_) {
      fallback_tracing_.push_back(
          std::make_unique<obs::TracingGphiEngine>(*fallback));
    }
  }
}

std::unique_ptr<GphiEngine> BatchQueryEngine::MakeWorkerEngine() const {
  if (options_.gphi_kind.has_value()) {
    // MakeGphiEngine aborts here if a required index is missing, so a
    // misconfigured engine fails at construction, not mid-batch.
    return MakeGphiEngine(*options_.gphi_kind, resources_);
  }
  return MakeCachedSsspEngine(*resources_.graph, cache_);
}

std::vector<FannResult> BatchQueryEngine::Run(
    const std::vector<FannrQuery>& queries) {
  return Run(queries, std::string_view());
}

std::vector<FannResult> BatchQueryEngine::Run(
    const std::vector<FannrQuery>& queries, std::string_view tag) {
  const bool tracing = options_.enable_metrics;
  Timer run_timer;
  last_traces_.clear();
  last_report_ = obs::BatchReport{};
  last_report_.tag = std::string(tag);
  last_report_metrics_fresh_ = true;  // empty report, nothing to snapshot
  if (tracing) {
    last_traces_.resize(queries.size());
    if (!tag.empty()) {
      for (obs::QueryTrace& trace : last_traces_) {
        trace.batch_tag = std::string(tag);
      }
    }
  }
  const SourceDistanceCache::Stats cache_before =
      cache_ != nullptr ? cache_->stats() : SourceDistanceCache::Stats{};
  const ThreadPool::Stats pool_before = pool_.stats();

  // Admit the whole batch under one graph epoch. Jobs that cannot finish
  // under it are rejected below rather than answered from torn reads.
  const GraphEpoch admission_epoch = resources_.graph->epoch();
  // A stale index is diagnosed once per batch (O(1)): if the configured
  // oracle's index predates the admission epoch, every job of this batch
  // runs on the per-worker index-free fallback engines instead.
  const std::string stale_reason =
      options_.gphi_kind.has_value()
          ? StaleIndexReason(*options_.gphi_kind, resources_)
          : std::string();
  const bool use_fallback = !stale_reason.empty();
  FANNR_CHECK(!use_fallback || !fallback_engines_.empty());
  std::atomic<size_t> mid_batch_rejected{0};
  std::atomic<size_t> fallback_solves{0};
  std::atomic<size_t> timed_out{0};

  // Screen every job (rejections fill their result slot and are skipped
  // by the parallel phase) and build the R-trees the runnable IER-kNN
  // jobs need — once per distinct P set, outside the parallel phase so
  // workers only read them.
  std::vector<FannResult> results(queries.size());
  size_t rejected = 0;
  std::map<const IndexedVertexSet*, RTree> p_trees;
  for (size_t i = 0; i < queries.size(); ++i) {
    const FannrQuery& job = queries[i];
    std::string error = JobValidationError(job, resources_.graph,
                                           options_.gphi_kind, use_fallback);
    if (!error.empty()) {
      ++rejected;
      results[i] = RejectedResult(error);
      if (tracing) {
        obs::QueryTrace& trace = last_traces_[i];
        trace.query_index = i;
        trace.algorithm = job.algorithm;
        trace.status = QueryStatus::kRejected;
        trace.error = std::move(error);
        metrics_->Add(m_rejected_, 1, /*shard=*/0);
        slow_log_->Offer(trace);
      }
      continue;
    }
    if (job.algorithm == FannAlgorithm::kIer) {
      const IndexedVertexSet* p = job.query.data_points;
      if (p_trees.find(p) == p_trees.end()) {
        p_trees.emplace(p, BuildDataPointRTree(*resources_.graph, *p));
      }
    }
  }

  auto mid_batch_error = [&]() {
    return MidBatchEpochError(admission_epoch, resources_.graph->epoch());
  };

  // The per-job solve body, shared by both schedules. A job is solved
  // entirely by one worker against that worker's engine; results land by
  // job index. Scheduling therefore only decides WHICH worker runs a job
  // and in what order — never what the job computes.
  auto solve_one = [&](size_t index, size_t worker) {
    if (results[index].status == QueryStatus::kRejected) return;
    const FannrQuery& job = queries[index];
    const RTree* p_tree = nullptr;
    if (job.algorithm == FannAlgorithm::kIer) {
      p_tree = &p_trees.at(job.query.data_points);
    }

    // Wall-clock deadline, measured from Run() entry. Checked before the
    // solve (a job already past its deadline is not worth starting) and
    // after it (a result computed past the deadline is discarded so the
    // caller sees a consistent kTimedOut outcome either way).
    const std::optional<double> deadline =
        job.deadline_ms.has_value() ? job.deadline_ms : options_.deadline_ms;
    auto deadline_exceeded = [&](bool strictly_after) {
      if (!deadline.has_value()) return false;
      const double elapsed = run_timer.Millis();
      return strictly_after ? elapsed > *deadline : elapsed >= *deadline;
    };
    auto timeout_error = [&](const char* when) {
      return "deadline of " + std::to_string(*deadline) + " ms exceeded " +
             when + " (" + std::to_string(run_timer.Millis()) +
             " ms since batch start)";
    };
    auto record_timeout = [&](obs::QueryTrace* trace, const char* when) {
      timed_out.fetch_add(1, std::memory_order_relaxed);
      std::string error = timeout_error(when);
      if (trace != nullptr) {
        trace->status = QueryStatus::kTimedOut;
        trace->error = error;
        metrics_->Add(m_timed_out_, 1, worker);
        slow_log_->Offer(*trace);
      }
      results[index] = TimedOutResult(error);
    };

    // A job is only worth solving while the batch's admission epoch is
    // still the graph's epoch; checked again after the solve because an
    // update landing mid-solve can tear the weights the solver read.
    auto reject_mid_batch = [&](obs::QueryTrace* trace) {
      mid_batch_rejected.fetch_add(1, std::memory_order_relaxed);
      std::string error = mid_batch_error();
      if (trace != nullptr) {
        trace->status = QueryStatus::kRejected;
        trace->error = error;
        metrics_->Add(m_rejected_, 1, worker);
        slow_log_->Offer(*trace);
      }
      results[index] = RejectedResult(error);
    };

    if (!tracing) {
      if (resources_.graph->epoch() != admission_epoch) {
        reject_mid_batch(nullptr);
        return;
      }
      if (deadline_exceeded(/*strictly_after=*/false)) {
        record_timeout(nullptr, "before solve");
        return;
      }
      GphiEngine& engine = use_fallback ? *fallback_engines_[worker]
                                        : *worker_engines_[worker];
      results[index] = SolveWith(job.algorithm, job.query, engine, p_tree);
      if (resources_.graph->epoch() != admission_epoch) {
        reject_mid_batch(nullptr);
        return;
      }
      if (deadline_exceeded(/*strictly_after=*/true)) {
        record_timeout(nullptr, "during solve");
        return;
      }
      if (use_fallback) {
        fallback_solves.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }

    obs::QueryTrace& trace = last_traces_[index];
    trace.query_index = index;
    trace.worker = worker;
    trace.algorithm = job.algorithm;
    trace.dispatch_wait_ms = run_timer.Millis();
    if (resources_.graph->epoch() != admission_epoch) {
      reject_mid_batch(&trace);
      return;
    }
    if (deadline_exceeded(/*strictly_after=*/false)) {
      record_timeout(&trace, "before solve");
      return;
    }
    if (use_fallback) {
      trace.stale_index_fallback = true;
      trace.fallback_reason = stale_reason;
    }
    CachedSsspEngine* cached = cached_engines_[worker];
    const CachedSsspEngine::ProbeCounters probes_before =
        cached != nullptr ? cached->probe_counters()
                          : CachedSsspEngine::ProbeCounters{};
    obs::TracingGphiEngine& engine = use_fallback
                                         ? *fallback_tracing_[worker]
                                         : *tracing_engines_[worker];
    engine.set_trace(&trace);
    Timer solve_timer;
    results[index] = SolveWith(job.algorithm, job.query, engine, p_tree);
    trace.solve_ms = solve_timer.Millis();
    engine.set_trace(nullptr);  // finalizes the sampled evaluate estimate
    // The extrapolated estimate can overshoot the measured span if a
    // timed sample hit a scheduler hiccup; clamp so the phase breakdown
    // stays contained in the solve span.
    trace.gphi_evaluate_ms =
        std::min(trace.gphi_evaluate_ms,
                 std::max(0.0, trace.solve_ms - trace.gphi_prepare_ms));
    if (resources_.graph->epoch() != admission_epoch) {
      reject_mid_batch(&trace);
      return;
    }
    if (deadline_exceeded(/*strictly_after=*/true)) {
      record_timeout(&trace, "during solve");
      return;
    }
    if (use_fallback) {
      fallback_solves.fetch_add(1, std::memory_order_relaxed);
    }

    if (cached != nullptr) {
      const CachedSsspEngine::ProbeCounters& probes = cached->probe_counters();
      trace.cache_hits = probes.hits - probes_before.hits;
      trace.cache_misses = probes.misses - probes_before.misses;
      trace.cache_epoch_evictions =
          probes.epoch_evictions - probes_before.epoch_evictions;
      // One registry write per query instead of one per cache probe (the
      // hit path is hot enough for per-probe publication to register in
      // the observability-overhead measurement).
      cached->FlushMetrics();
    }
    trace.gphi_evaluations = results[index].gphi_evaluations;
    trace.distance = results[index].distance;
    trace.best = results[index].best;
    trace.spans = {
        {"dispatch-wait", 0.0, trace.dispatch_wait_ms},
        {"solve", trace.dispatch_wait_ms, trace.solve_ms},
    };
    metrics_->Add(m_queries_, 1, worker);
    metrics_->Record(m_solve_ms_, trace.solve_ms, worker);
    metrics_->Record(m_dispatch_wait_ms_, trace.dispatch_wait_ms, worker);
    slow_log_->Offer(trace);
  };

  pool_.ParallelFor(queries.size(), solve_one);

  if (tracing) {
    // Queries that bailed out early (mid-batch reject, deadline) return
    // before the per-query flush; settle every engine here so registry
    // totals equal the cache's own counters in any snapshot taken after
    // this Run.
    for (CachedSsspEngine* cached : cached_engines_) {
      if (cached != nullptr) cached->FlushMetrics();
    }
    obs::BatchReport& report = last_report_;
    report.batch_size = queries.size();
    report.rejected =
        rejected + mid_batch_rejected.load(std::memory_order_relaxed);
    report.rejected_mid_batch =
        mid_batch_rejected.load(std::memory_order_relaxed);
    report.timed_out = timed_out.load(std::memory_order_relaxed);
    report.graph_epoch = admission_epoch;
    report.stale_index_fallbacks =
        fallback_solves.load(std::memory_order_relaxed);
    report.num_threads = pool_.num_workers();
    report.wall_ms = run_timer.Millis();
    const size_t executed =
        queries.size() - report.rejected - report.timed_out;
    report.queries_per_second =
        report.wall_ms > 0.0
            ? 1000.0 * static_cast<double>(executed) / report.wall_ms
            : 0.0;

    report.solve_ms.bounds = obs::DefaultLatencyBucketsMs();
    report.solve_ms.counts.assign(report.solve_ms.bounds.size() + 1, 0);
    for (const obs::QueryTrace& trace : last_traces_) {
      if (trace.status != QueryStatus::kOk) continue;
      report.solve_ms.Accumulate(trace.solve_ms);
      report.attributed_cache_hits += trace.cache_hits;
      report.attributed_cache_misses += trace.cache_misses;
    }

    const SourceDistanceCache::Stats cache_after =
        cache_ != nullptr ? cache_->stats() : SourceDistanceCache::Stats{};
    report.cache.hits = cache_after.hits - cache_before.hits;
    report.cache.misses = cache_after.misses - cache_before.misses;
    report.cache.evictions = cache_after.evictions - cache_before.evictions;
    report.cache.epoch_evictions =
        cache_after.epoch_evictions - cache_before.epoch_evictions;
    report.cache.narrow_misses =
        cache_after.narrow_misses - cache_before.narrow_misses;
    report.cache.bounded_rows =
        cache_after.bounded_rows - cache_before.bounded_rows;
    report.cache.pruned_rows =
        cache_after.pruned_rows - cache_before.pruned_rows;
    report.cache_entries = cache_ != nullptr ? cache_->size() : 0;
    metrics_->Set(m_cache_entries_,
                  static_cast<double>(report.cache_entries));

    const ThreadPool::Stats pool_after = pool_.stats();
    report.pool_indices_executed =
        pool_after.indices_executed - pool_before.indices_executed;

    // The registry snapshot itself is deferred to last_report(): it is
    // the one expensive piece of report assembly, and building it here
    // would bill it to the batch's wall clock.
    last_report_metrics_fresh_ = false;
  }
  return results;
}

SourceDistanceCache::Stats BatchQueryEngine::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : SourceDistanceCache::Stats{};
}

}  // namespace fannr
