// BatchQueryEngine: throughput-oriented parallel execution of FANN_R
// query batches.
//
// The paper's evaluation (Section VI) measures one query at a time; a
// production deployment answers streams of queries against a shared set
// of substrate indexes. This engine accepts a batch of FannrQuery jobs
// and executes them concurrently on a fixed worker pool with:
//
//   (a) per-worker scratch reuse — each worker owns one g_phi engine
//       (and thereby one Dijkstra/A*/CH search object) for the lifetime
//       of the engine, extending the TimestampedArray amortization of
//       sp/dijkstra.h across threads;
//   (b) a sharded source-distance cache shared by all workers (see
//       engine/distance_cache.h), so candidate evaluations repeated
//       across the queries of a batch reuse settled SSSP distances;
//   (c) pluggable algorithm dispatch (fann/dispatch.h): every solver —
//       Naive, GD, R-List, IER-kNN, Exact-max, APX-sum — gains
//       parallelism without modification; and
//   (d) optional per-query observation (src/obs/): metrics registry,
//       QueryTrace per job, a slow-query log, and a BatchReport per
//       Run. All of it is observation-only — see the determinism
//       invariant below.
//
// Job validation: each job is screened before the parallel phase. A job
// whose query is malformed (null/empty P or Q, bad phi), targets a graph
// other than the engine's, or pairs an algorithm with an unsupported
// aggregate is NOT executed; its slot in the returned vector carries
// status == QueryStatus::kRejected and a reason in `error`, and the
// remaining jobs run normally. This turns what used to be undefined
// behavior (or a process abort) on externally-assembled batches into a
// per-job error visible in the result and its trace.
//
// Update safety (dynamic/update.h): Run() admits the whole batch under
// one graph epoch, captured at entry. If an UpdateBatch bumps the epoch
// while the batch is in flight, every job that had not finished solving
// under the admission epoch is rejected (QueryStatus::kRejected with a
// mid-batch-update reason) instead of returning a result computed from
// torn weight reads — the caller re-submits against the new epoch. And
// when the engine was configured with an index-backed g_phi kind (G-tree,
// PHL, CH) whose index is stale for the admission epoch, the batch is
// transparently answered by per-worker index-free fallback engines (INE,
// exact on the live weights); traces carry stale_index_fallback plus the
// staleness diagnosis, and the report counts the fallbacks. A stale index
// therefore costs latency, never correctness.
//
// Determinism invariant: Run() output is a pure function of the input
// batch — identical (bitwise, including work counters) for every thread
// count, cache configuration, and observation setting. This holds
// because (1) each query is solved entirely by one worker with engine
// state rebound per query, (2) workers never share mutable solver state,
// (3) cache entries are immutable exact Dijkstra vectors, so a hit
// returns exactly what a miss would recompute, and (4) tracing wraps the
// worker engine in a pass-through decorator that forwards calls
// unchanged and only copies counters/timestamps out.
// tests/batch_determinism_test.cc enforces all four.

#ifndef FANNR_ENGINE_BATCH_ENGINE_H_
#define FANNR_ENGINE_BATCH_ENGINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "engine/cached_sssp.h"
#include "engine/distance_cache.h"
#include "engine/thread_pool.h"
#include "fann/dispatch.h"
#include "fann/gphi.h"
#include "fann/query.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"

namespace fannr {

/// One job of a batch: the query plus the algorithm that answers it.
/// All pointers inside `query` must outlive the Run() call; `query.graph`
/// must equal the engine's graph (violations are rejected per job, see
/// the header comment).
struct FannrQuery {
  FannQuery query;
  FannAlgorithm algorithm = FannAlgorithm::kGd;
  /// Per-job wall-clock deadline in milliseconds, measured from Run()
  /// entry; overrides BatchOptions::deadline_ms. nullopt inherits the
  /// batch default. A job whose deadline has passed before it is picked
  /// up is not solved; a job whose solve finishes past its deadline has
  /// its answer discarded. Either way the result carries
  /// QueryStatus::kTimedOut (and a reason in `error`), and batch-mates
  /// are unaffected. Values <= 0 time out immediately.
  std::optional<double> deadline_ms;
};

struct BatchOptions {
  /// Worker threads (0 = hardware_concurrency).
  size_t num_threads = 1;

  /// Which g_phi oracle the workers use. nullopt (default) selects the
  /// Cached-SSSP oracle, which shares settled distances through the
  /// batch-wide cache. Any GphiKind instead gives every worker its own
  /// engine of that kind (Table I semantics, parallel but uncached).
  std::optional<GphiKind> gphi_kind;

  /// Cached-SSSP oracle only: share one distance cache across workers
  /// and batches. Disabled, each evaluation recomputes its SSSP.
  bool share_distance_cache = true;

  /// Shared cache sizing: resident entries (each one |V| Weights).
  /// capacity 0 (default) auto-sizes from
  /// cache_memory_budget_bytes and the graph's vertex count, so the
  /// default stays sane from the TEST preset up to million-vertex maps.
  size_t cache_capacity = 0;
  size_t cache_memory_budget_bytes = size_t{512} << 20;  // 512 MiB

  /// Observability. Enabled, every Run() records a QueryTrace per job,
  /// publishes into the engine's metrics registry, feeds the slow-query
  /// log, and produces a BatchReport (last_report()). Disabled (default),
  /// the observation path costs nothing and last_report() is empty.
  /// Either way query results are bitwise identical.
  bool enable_metrics = false;

  /// Traces whose solve time reaches this threshold (and every rejected
  /// job) are retained in the slow-query log. <= 0 retains everything.
  double slow_query_threshold_ms = 50.0;

  /// Ring capacity of the slow-query log.
  size_t slow_query_log_capacity = 64;

  /// Batch-wide wall-clock deadline in milliseconds, measured from
  /// Run() entry, applied to every job without a per-job override.
  /// nullopt (default) = no deadline. Deadline outcomes are inherently
  /// timing-dependent, so the bitwise determinism invariant above only
  /// covers runs with no deadline configured (the default).
  std::optional<double> deadline_ms;
};

/// The canonical rejection reason for work admitted under epoch
/// `admitted` that can no longer be answered because the graph has
/// moved to `now`. Shared by Run()'s mid-batch check and the network
/// server's admission-queue check (src/net/server.h) so both layers
/// reject with the identical re-submit contract.
std::string MidBatchEpochError(GraphEpoch admitted, GraphEpoch now);

/// Parallel batch executor. Construct once per (graph, indexes); Run()
/// any number of batches. Run() itself must not be called concurrently.
class BatchQueryEngine {
 public:
  /// `resources.graph` is required; index pointers only for the kinds
  /// that need them (checked at construction). The pointees are shared
  /// read-only across workers and must outlive the engine.
  BatchQueryEngine(const GphiResources& resources,
                   const BatchOptions& options);

  /// Executes every query of the batch and returns the answers aligned
  /// with the input (rejected jobs carry QueryStatus::kRejected, see
  /// above). IER-kNN queries build one R-tree per distinct data point
  /// set before the parallel phase (shared, read-only during it).
  std::vector<FannResult> Run(const std::vector<FannrQuery>& queries);

  /// Same as Run(), with a caller attribution tag written into the
  /// batch's report (BatchReport::tag) and every trace
  /// (QueryTrace::batch_tag). The server tags subscription
  /// re-evaluation batches "subscription-reeval" so push-driven work is
  /// attributable in metrics dumps and slow-query logs. The tag is pure
  /// observation: results are bitwise identical to an untagged Run.
  std::vector<FannResult> Run(const std::vector<FannrQuery>& queries,
                              std::string_view tag);

  size_t num_threads() const { return pool_.num_workers(); }

  /// Cumulative shared-cache counters (zero when the cache is disabled
  /// or a GphiKind oracle is selected).
  SourceDistanceCache::Stats cache_stats() const;

  // --- Observability (all empty/no-op unless options.enable_metrics) ---

  /// Report for the most recent Run(). Reset at the start of each Run.
  /// The embedded registry snapshot (report.metrics) is assembled on
  /// first access rather than inside Run() — snapshotting walks every
  /// shard of every metric and allocates the name maps, and doing that
  /// inside Run() charged report assembly to the batch's own wall time
  /// (it showed up in the measured observability overhead). Everything
  /// else in the report is captured at Run() end as cheap scalars.
  const obs::BatchReport& last_report() const {
    if (metrics_ != nullptr && !last_report_metrics_fresh_) {
      last_report_.metrics = metrics_->Snapshot();
      last_report_metrics_fresh_ = true;
    }
    return last_report_;
  }

  /// Traces of the most recent Run(), aligned with its input batch.
  /// Cleared at the start of each Run; empty when metrics are disabled.
  const std::vector<obs::QueryTrace>& last_traces() const {
    return last_traces_;
  }

  /// Threshold-filtered trace ring, persistent across Run() calls.
  /// nullptr when metrics are disabled.
  const obs::SlowQueryLog* slow_query_log() const {
    return slow_log_ ? slow_log_.get() : nullptr;
  }

  /// The engine's registry (per-worker sharded; pool, cache, and solver
  /// metrics — names in DESIGN.md §2.7). nullptr when metrics are
  /// disabled.
  const obs::MetricsRegistry* metrics() const {
    return metrics_ ? metrics_.get() : nullptr;
  }

 private:
  std::unique_ptr<GphiEngine> MakeWorkerEngine() const;

  GphiResources resources_;
  BatchOptions options_;
  std::shared_ptr<SourceDistanceCache> cache_;  // null if not sharing
  ThreadPool pool_;
  std::vector<std::unique_ptr<GphiEngine>> worker_engines_;
  // Typed views of worker_engines_ for cache attribution; entries are
  // null in gphi_kind mode.
  std::vector<CachedSsspEngine*> cached_engines_;
  // Per-worker index-free fallback engines, created eagerly when the
  // configured gphi_kind answers from a prebuilt index (empty otherwise),
  // so a stale index never forces an allocation mid-batch.
  std::vector<std::unique_ptr<GphiEngine>> fallback_engines_;

  // Observation state (allocated only when options.enable_metrics).
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  std::vector<std::unique_ptr<obs::TracingGphiEngine>> tracing_engines_;
  std::vector<std::unique_ptr<obs::TracingGphiEngine>> fallback_tracing_;
  obs::CounterId m_queries_, m_rejected_, m_timed_out_;
  obs::HistogramId m_solve_ms_, m_dispatch_wait_ms_;
  obs::GaugeId m_cache_entries_;
  std::vector<obs::QueryTrace> last_traces_;
  // Mutable: last_report() lazily fills in the metrics snapshot (see its
  // doc comment). Safe because Run() must not be called concurrently and
  // accessors share that external synchronization.
  mutable obs::BatchReport last_report_;
  mutable bool last_report_metrics_fresh_ = true;
};

}  // namespace fannr

#endif  // FANNR_ENGINE_BATCH_ENGINE_H_
