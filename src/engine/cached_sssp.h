// A g_phi engine backed by cached single-source shortest-path vectors.
//
// Evaluate(p, k, g) needs the network distances from the candidate p to
// every query point; on an undirected road network those are a gather
// from the SSSP vector delta(p, .). This engine obtains that vector from
// a SourceDistanceCache shared across the batch (recomputing with a
// per-engine DijkstraSearch on miss), so the second and every later
// query of a batch that evaluates the same candidate pays a hash lookup
// plus an O(|Q|) gather instead of a graph search (a bucket-queue
// Dijkstra on road networks, see DijkstraSearch::SsspInto).
//
// Miss rows and the doorkeeper rule. Once the cache is full, most
// sources a cold workload evaluates are never read again, so a row is
// only as wide as it has to be, and the cache itself decides when a
// source deserves more:
//   * while the source's cache shard has room, a miss evicts nothing
//     and builds the full row;
//   * once the shard is full, a source the cache does not hold gets a
//     row bounded by Q — the search stops once every q is final, and
//     the row is inserted stamped with its radius (see
//     SourceDistanceCache);
//   * a source the cache held at another epoch, or held with a radius
//     that misses this Q (a narrow miss), has been read before and gets
//     the full row, which replaces the narrow one;
//   * without a cache every row is bounded by Q.
// Best-bounded rows: wherever a row is bounded by Q (the second and the
// last case), EvaluateBounded also stops it once the k-subset lower
// bound on g_phi(p) passes the caller's bound (DijkstraSearch::SsspInto
// with a GphiBound); p is then pruned ({kInfWeight, {}}) and the row is
// inserted stamped with its radius like any bounded row, so a later
// lookup for the same Q narrow-misses and builds the full row. Full
// rows (room, stale, narrow) ignore the bound.
// Miss rows are built in buffers recycled from rows the cache dropped
// (SourceDistanceCache::TakeSpareRow), so row churn does not keep
// faulting in fresh memory.
//
// Exactness: a row holds exact Dijkstra distances for every vertex within
// its radius, and the cache returns a row only when all of Q is within
// it, so results equal the INE/A*/PHL engines' up to floating-point
// summation order, and are bitwise identical to any other
// CachedSsspEngine on the same graph — regardless of cache hits,
// sharing, row widths, or which thread filled the cache.
// Under live weight updates (dynamic/update.h) every cache probe carries
// the graph's current epoch, so a vector computed before an UpdateBatch
// is lazily reclaimed rather than returned — correctness survives updates
// without flushing the cache.

#ifndef FANNR_ENGINE_CACHED_SSSP_H_
#define FANNR_ENGINE_CACHED_SSSP_H_

#include <memory>

#include "engine/distance_cache.h"
#include "fann/gphi.h"
#include "obs/metrics.h"
#include "sp/dijkstra.h"

namespace fannr {

/// Cache-backed exact g_phi engine. Like every GphiEngine it is not
/// thread-safe itself (it owns Dijkstra scratch); concurrent workers each
/// hold their own instance and share one SourceDistanceCache.
class CachedSsspEngine : public GphiEngine {
 public:
  /// Cumulative cache probes made by THIS engine (as opposed to the
  /// shared cache's global counters). Because one engine is owned by one
  /// worker and one worker solves a query end to end, deltas of these
  /// counters around a solve attribute cache activity to that query.
  struct ProbeCounters {
    size_t hits = 0;
    size_t misses = 0;  ///< Narrow misses included, as in the cache.
    size_t epoch_evictions = 0;  ///< Misses that reclaimed a stale entry.
  };

  /// Registry handles the engine records into when publication is
  /// enabled (see PublishMetrics). Registered once by the owner so all
  /// workers share the same named metrics, sharded by worker id.
  struct MetricHandles {
    obs::CounterId cache_hits;
    obs::CounterId cache_misses;
    obs::CounterId cache_epoch_evictions;
    obs::HistogramId sssp_compute_ms;
  };

  /// `cache` may be null, in which case every evaluation recomputes (the
  /// engine then still amortizes its Dijkstra scratch across calls).
  CachedSsspEngine(const Graph& graph,
                   std::shared_ptr<SourceDistanceCache> cache);

  void Prepare(const IndexedVertexSet& query_points) override;
  bool BindWeights(std::span<const double> weights) override;
  GphiResult Evaluate(VertexId p, size_t k, Aggregate aggregate) override;
  /// Uses `bound` only where the row is bounded by Q anyway (an absent
  /// source once its shard is full, and every row without a cache); see
  /// the header comment.
  GphiResult EvaluateBounded(VertexId p, size_t k, Aggregate aggregate,
                             Weight bound) override;
  /// Reserves the Dijkstra frontier for a full-graph search (see
  /// DijkstraSearch::ReserveFullSearch), making miss-path SSSP
  /// computations regrowth-free from the first call.
  void PrewarmScratch() override;
  std::string_view name() const override { return "Cached-SSSP"; }

  /// Enables publication into `registry` (nullptr disables): cache
  /// hit/miss counters and the SSSP recompute-latency histogram, all
  /// written to shard `shard`. Observation only — never affects results.
  void PublishMetrics(obs::MetricsRegistry* registry, MetricHandles handles,
                      size_t shard);

  /// Publishes probe counts accumulated since the last flush into the
  /// registry. Hit/miss/eviction counters are NOT written per probe —
  /// the hit path is the hottest line of a cached batch, and a registry
  /// write per probe is measurable there — so the owner flushes once
  /// per query (and once at end of batch, so registry totals match the
  /// cache's own counters whenever a report is assembled). No-op when
  /// publication is disabled.
  void FlushMetrics();

  const ProbeCounters& probe_counters() const { return probes_; }

 private:
  // True when a member of Q lies beyond `radius` in `row`: the row
  // stopped on the caller's bound, not on Q.
  bool BeyondRadius(const std::vector<Weight>& row, Weight radius) const;

  const Graph& graph_;
  std::shared_ptr<SourceDistanceCache> cache_;
  DijkstraSearch search_;
  const IndexedVertexSet* query_points_ = nullptr;
  std::span<const double> weights_;    // per-q weights; empty = unweighted
  std::vector<Weight> scratch_sssp_;   // bounded rows without a cache
  std::vector<Weight> q_distances_;    // gather target, |Q| entries
  internal_gphi::SelectScratch select_scratch_;
  ProbeCounters probes_;
  ProbeCounters published_;  // values already flushed to the registry
  obs::MetricsRegistry* registry_ = nullptr;  // null = no publication
  MetricHandles handles_;
  size_t metrics_shard_ = 0;
};

/// Convenience factory matching MakeGphiEngine's shape.
std::unique_ptr<GphiEngine> MakeCachedSsspEngine(
    const Graph& graph, std::shared_ptr<SourceDistanceCache> cache);

}  // namespace fannr

#endif  // FANNR_ENGINE_CACHED_SSSP_H_
