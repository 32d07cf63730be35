#include "engine/cached_sssp.h"

#include <utility>

#include "common/timer.h"

namespace fannr {

CachedSsspEngine::CachedSsspEngine(
    const Graph& graph, std::shared_ptr<SourceDistanceCache> cache)
    : graph_(graph), cache_(std::move(cache)), search_(graph) {}

void CachedSsspEngine::Prepare(const IndexedVertexSet& query_points) {
  query_points_ = &query_points;
  q_distances_.resize(query_points.size());
  weights_ = {};
}

bool CachedSsspEngine::BindWeights(std::span<const double> weights) {
  // The cache stores RAW SSSP vectors — weights are applied at the
  // gather/fold, never baked into cached distances, so weighted and
  // unweighted queries share the same cache entries.
  weights_ = weights;
  return true;
}

void CachedSsspEngine::PrewarmScratch() { search_.ReserveFullSearch(); }

GphiResult CachedSsspEngine::Evaluate(VertexId p, size_t k,
                                      Aggregate aggregate) {
  return EvaluateBounded(p, k, aggregate, kInfWeight);
}

bool CachedSsspEngine::BeyondRadius(const std::vector<Weight>& row,
                                    Weight radius) const {
  if (radius == kInfWeight) return false;
  for (VertexId q : query_points_->members()) {
    if (row[q] > radius) return true;
  }
  return false;
}

GphiResult CachedSsspEngine::EvaluateBounded(VertexId p, size_t k,
                                             Aggregate aggregate,
                                             Weight bound) {
  FANNR_CHECK(query_points_ != nullptr);
  // The bound only ever shortens a row that is bounded by Q anyway: a
  // row that stops on it leaves a q beyond its radius, and p is pruned.
  const GphiBound stop{bound, k, aggregate, weights_};
  const std::vector<Weight>* sssp = nullptr;
  std::shared_ptr<const std::vector<Weight>> cached;
  if (cache_ != nullptr) {
    // The epoch read here and the SSSP below see the same weights as long
    // as no update races the solve; the batch engine guarantees that by
    // rejecting jobs whose batch straddles an epoch change.
    const GraphEpoch epoch = graph_.epoch();
    SourceDistanceCache::Probe probe = SourceDistanceCache::Probe::kAbsent;
    cached = cache_->Lookup(p, epoch, query_points_->members(), &probe);
    if (probe == SourceDistanceCache::Probe::kStale) {
      ++probes_.epoch_evictions;
    }
    if (cached == nullptr) {
      ++probes_.misses;
      // The cache is its own doorkeeper. While the source's shard has
      // room, a row evicts nothing and is built whole. Once it is full,
      // a source the cache does not hold gets a row bounded by Q and by
      // the caller's bound; one it held at another epoch, or held too
      // narrow, has been read before and gets the full row.
      std::vector<Weight> fresh = cache_->TakeSpareRow();
      Weight radius = kInfWeight;
      {
        Timer sssp_timer;
        if (probe == SourceDistanceCache::Probe::kAbsentFull) {
          radius = search_.SsspInto(p, query_points_->members(), fresh, stop);
        } else {
          search_.SsspInto(p, fresh);
        }
        if (registry_ != nullptr) {
          registry_->Record(handles_.sssp_compute_ms, sssp_timer.Millis(),
                            metrics_shard_);
        }
      }
      const bool pruned = BeyondRadius(fresh, radius);
      cached = cache_->Insert(p, epoch, std::move(fresh), radius, pruned);
      if (pruned) return {};
    } else {
      ++probes_.hits;
    }
    sssp = cached.get();
  } else {
    Timer sssp_timer;
    const Weight radius =
        search_.SsspInto(p, query_points_->members(), scratch_sssp_, stop);
    if (registry_ != nullptr) {
      registry_->Record(handles_.sssp_compute_ms, sssp_timer.Millis(),
                        metrics_shard_);
    }
    if (BeyondRadius(scratch_sssp_, radius)) return {};
    sssp = &scratch_sssp_;
  }
  for (size_t i = 0; i < query_points_->size(); ++i) {
    q_distances_[i] = (*sssp)[(*query_points_)[i]];
  }
  return internal_gphi::SelectAndFold(*query_points_, q_distances_, k,
                                      aggregate, &select_scratch_, weights_);
}

void CachedSsspEngine::PublishMetrics(obs::MetricsRegistry* registry,
                                      MetricHandles handles, size_t shard) {
  registry_ = registry;
  handles_ = handles;
  metrics_shard_ = shard;
}

void CachedSsspEngine::FlushMetrics() {
  if (registry_ == nullptr) return;
  if (probes_.hits != published_.hits) {
    registry_->Add(handles_.cache_hits, probes_.hits - published_.hits,
                   metrics_shard_);
  }
  if (probes_.misses != published_.misses) {
    registry_->Add(handles_.cache_misses, probes_.misses - published_.misses,
                   metrics_shard_);
  }
  if (probes_.epoch_evictions != published_.epoch_evictions) {
    registry_->Add(handles_.cache_epoch_evictions,
                   probes_.epoch_evictions - published_.epoch_evictions,
                   metrics_shard_);
  }
  published_ = probes_;
}

std::unique_ptr<GphiEngine> MakeCachedSsspEngine(
    const Graph& graph, std::shared_ptr<SourceDistanceCache> cache) {
  return std::make_unique<CachedSsspEngine>(graph, std::move(cache));
}

}  // namespace fannr
