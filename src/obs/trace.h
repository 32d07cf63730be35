// Per-query execution traces.
//
// A QueryTrace is the unit of record the batch engine keeps per query
// when observation is enabled: where the query ran (worker), how long
// each phase took (dispatch wait, solve, and the g_phi prepare/evaluate
// breakdown captured by a pass-through TracingGphiEngine), what the
// solver reported (the FannResult work counters), and what the shared
// distance cache did for this specific query (hit/miss deltas of the
// executing worker's engine).
//
// Traces are observation-only by construction: the tracing engine
// forwards Prepare/Evaluate untouched and every recorded quantity is a
// timestamp or a copy of an existing counter, so traced and untraced
// runs produce bitwise-identical query results
// (tests/batch_determinism_test.cc enforces this).

#ifndef FANNR_OBS_TRACE_H_
#define FANNR_OBS_TRACE_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/timer.h"
#include "fann/dispatch.h"
#include "fann/query.h"

namespace fannr::obs {

namespace internal_obs {

/// Minimal JSON string escaping shared by the obs dump paths.
std::string JsonEscape(std::string_view s);

}  // namespace internal_obs

/// One named span inside a trace. Offsets are milliseconds relative to
/// the batch's Run() start, so spans across queries and workers share
/// one time base.
struct TraceSpan {
  std::string name;
  double start_ms = 0.0;
  double duration_ms = 0.0;
};

/// The complete record of one query's execution within a batch.
struct QueryTrace {
  size_t query_index = 0;   ///< Position in the Run() input batch.
  size_t worker = 0;        ///< Executing worker id.
  FannAlgorithm algorithm = FannAlgorithm::kGd;
  QueryStatus status = QueryStatus::kOk;
  std::string error;        ///< Non-empty iff status == kRejected.

  /// Caller-supplied batch attribution (e.g. "subscription-reeval"); set
  /// on every trace of a tagged Run, empty for untagged batches.
  std::string batch_tag;

  /// Coarse spans: "dispatch-wait" (Run() start -> worker pickup) and
  /// "solve" (solver entry -> result), in batch-relative time.
  std::vector<TraceSpan> spans;
  double dispatch_wait_ms = 0.0;
  double solve_ms = 0.0;

  /// g_phi phase breakdown accumulated by the tracing engine across the
  /// whole solve (a solver calls Prepare once and Evaluate many times).
  /// Prepare is timed exactly. Evaluate time is SAMPLED: a solver makes
  /// tens of Evaluate calls per query and each one is microseconds, so
  /// timing every call costs more than everything else observation does
  /// combined (two clock reads per call dominated the measured
  /// observability overhead). The tracing engine times one call in
  /// kEvaluateSamplePeriod (the first is always timed) and scales the
  /// sum by calls/timed on trace finalization; gphi_evaluate_ms is that
  /// estimate, clamped into the solve span by the batch engine.
  /// gphi_evaluate_calls is always exact.
  double gphi_prepare_ms = 0.0;
  double gphi_evaluate_ms = 0.0;
  size_t gphi_evaluate_calls = 0;
  size_t gphi_evaluate_timed_calls = 0;  ///< Calls behind the estimate.

  /// Copied solver counters / answer summary.
  size_t gphi_evaluations = 0;
  Weight distance = kInfWeight;
  VertexId best = kInvalidVertex;

  /// Shared-distance-cache activity attributed to this query (deltas of
  /// the executing worker's cached engine around the solve; zero when
  /// the cache or the cached oracle is disabled). epoch_evictions counts
  /// the misses that lazily reclaimed an entry stamped with an older
  /// graph epoch (see dynamic/update.h).
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t cache_epoch_evictions = 0;

  /// Set when the engine's configured g_phi kind depends on a prebuilt
  /// index that was stale for the graph's current epoch, so this query
  /// was answered by the index-free fallback engine instead (INE; exact
  /// on the live weights). fallback_reason carries the staleness
  /// diagnosis from StaleIndexReason().
  bool stale_index_fallback = false;
  std::string fallback_reason;
};

/// One-line-per-field human dump.
std::string FormatTrace(const QueryTrace& trace);

/// Compact JSON object (no trailing newline).
std::string TraceToJson(const QueryTrace& trace);

/// RAII helper accumulating wall-clock milliseconds into a target.
class ScopedTimerMs {
 public:
  explicit ScopedTimerMs(double* target_ms) : target_ms_(target_ms) {}
  ~ScopedTimerMs() { *target_ms_ += timer_.Millis(); }
  ScopedTimerMs(const ScopedTimerMs&) = delete;
  ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

 private:
  double* target_ms_;
  Timer timer_;
};

/// Pass-through g_phi engine recording phase timings into the active
/// QueryTrace. Forwarding is exact (same calls, same order, same
/// results), so wrapping never changes answers. Not thread-safe, like
/// every GphiEngine; each worker wraps its own engine.
class TracingGphiEngine : public GphiEngine {
 public:
  /// Evaluate calls are timed at this period (see QueryTrace's phase
  /// breakdown doc): call 0 of every query is timed, then every
  /// kEvaluateSamplePeriod-th. Evaluations within one query are
  /// homogeneous (same |Q|, same oracle), so the extrapolated estimate
  /// tracks the true sum while the untimed calls cost one increment.
  static constexpr size_t kEvaluateSamplePeriod = 16;

  explicit TracingGphiEngine(GphiEngine& inner) : inner_(inner) {}

  /// Redirects recording; nullptr disables (pure forwarding). Switching
  /// away from a trace finalizes it: the sampled Evaluate time is scaled
  /// to an estimate covering all calls.
  void set_trace(QueryTrace* trace) {
    FinalizeTrace();
    trace_ = trace;
  }

  void Prepare(const IndexedVertexSet& query_points) override {
    if (trace_ == nullptr) return inner_.Prepare(query_points);
    ScopedTimerMs t(&trace_->gphi_prepare_ms);
    inner_.Prepare(query_points);
  }

  // Forwarded untimed: binding is a span copy, far below the sampling
  // noise floor, and forwarding is mandatory — swallowing it here would
  // trip the weighted solvers' BindWeights check under tracing.
  bool BindWeights(std::span<const double> weights) override {
    return inner_.BindWeights(weights);
  }

  GphiResult Evaluate(VertexId p, size_t k, Aggregate aggregate) override {
    return Sampled([&] { return inner_.Evaluate(p, k, aggregate); });
  }

  // Forwarded as a bounded call: falling back to the default (an
  // unbounded Evaluate) would keep the answers but lose every pruned
  // row, and the server runs every job through this wrapper.
  GphiResult EvaluateBounded(VertexId p, size_t k, Aggregate aggregate,
                             Weight bound) override {
    return Sampled(
        [&] { return inner_.EvaluateBounded(p, k, aggregate, bound); });
  }

  // Pure forwarding: prewarming is part of construction, not solving,
  // so it is never timed into a trace.
  void PrewarmScratch() override { inner_.PrewarmScratch(); }

  std::string_view name() const override { return inner_.name(); }

 private:
  // Runs one Evaluate-family call, timing it into the trace on the
  // sampling period.
  template <typename Call>
  GphiResult Sampled(Call call) {
    if (trace_ == nullptr) return call();
    if (trace_->gphi_evaluate_calls++ % kEvaluateSamplePeriod != 0) {
      return call();
    }
    ++trace_->gphi_evaluate_timed_calls;
    ScopedTimerMs t(&trace_->gphi_evaluate_ms);
    return call();
  }

  // Scales the sampled Evaluate-time sum up to all calls. Idempotent per
  // trace because set_trace detaches the trace it finalizes.
  void FinalizeTrace() {
    if (trace_ == nullptr) return;
    if (trace_->gphi_evaluate_timed_calls > 0 &&
        trace_->gphi_evaluate_calls > trace_->gphi_evaluate_timed_calls) {
      trace_->gphi_evaluate_ms *=
          static_cast<double>(trace_->gphi_evaluate_calls) /
          static_cast<double>(trace_->gphi_evaluate_timed_calls);
    }
    trace_ = nullptr;
  }

  GphiEngine& inner_;
  QueryTrace* trace_ = nullptr;
};

}  // namespace fannr::obs

#endif  // FANNR_OBS_TRACE_H_
