#include "engine/distance_cache.h"

#include <algorithm>

#include "common/check.h"

namespace fannr {

void SourceDistanceCache::SparePool::Put(std::vector<Weight>&& row) {
  if (row.capacity() == 0) return;
  std::vector<Weight> freed;  // released outside the lock
  std::lock_guard<std::mutex> lock(mu);
  if (rows.size() < capacity) {
    rows.push_back(std::move(row));
  } else {
    freed = std::move(row);
  }
}

void SourceDistanceCache::Recycle::operator()(
    std::vector<Weight>* row) const {
  pool->Put(std::move(*row));
  delete row;
}

SourceDistanceCache::SourceDistanceCache(size_t capacity, size_t num_shards,
                                         size_t spare_rows)
    : capacity_(std::max<size_t>(1, capacity)),
      spares_(std::make_shared<SparePool>()) {
  num_shards = std::max<size_t>(1, std::min(num_shards, capacity_));
  shards_ = std::vector<Shard>(num_shards);
  // Distribute the budget; every shard holds at least one entry.
  const size_t base = capacity_ / num_shards;
  const size_t extra = capacity_ % num_shards;
  for (size_t i = 0; i < num_shards; ++i) {
    shards_[i].capacity = std::max<size_t>(1, base + (i < extra ? 1 : 0));
  }
  spares_->capacity = spare_rows;
}

std::shared_ptr<const std::vector<Weight>> SourceDistanceCache::Lookup(
    VertexId source, GraphEpoch epoch, std::span<const VertexId> targets,
    Probe* probe) {
  Probe found = Probe::kAbsent;
  // Declared before the lock, so a reclaimed row is released (and its
  // buffer recycled) after the shard is unlocked.
  std::shared_ptr<std::vector<Weight>> reclaimed;
  std::shared_ptr<const std::vector<Weight>> row;
  {
    Shard& shard = ShardOf(source);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(source);
    if (it == shard.map.end()) {
      ++shard.misses;
      if (shard.map.size() >= shard.capacity) found = Probe::kAbsentFull;
    } else if (it->second.epoch != epoch) {
      // Entry was computed under a different graph epoch: reclaim it
      // lazily so it can never be returned, and report a miss.
      reclaimed = std::move(it->second.distances);
      shard.lru.erase(it->second.lru_pos);
      shard.map.erase(it);
      ++shard.misses;
      ++shard.epoch_evictions;
      found = Probe::kStale;
    } else {
      const Shard::Slot& slot = it->second;
      const std::vector<Weight>& distances = *slot.distances;
      const bool serves =
          slot.radius == kInfWeight ||
          std::all_of(targets.begin(), targets.end(), [&](VertexId t) {
            FANNR_DCHECK(t < distances.size());
            return distances[t] <= slot.radius;
          });
      if (serves) {
        ++shard.hits;
        shard.lru.splice(shard.lru.begin(), shard.lru, slot.lru_pos);
        row = slot.distances;
        found = Probe::kHit;
      } else {
        ++shard.misses;
        ++shard.narrow_misses;
        found = Probe::kNarrow;
      }
    }
  }
  if (probe != nullptr) *probe = found;
  return row;
}

std::shared_ptr<const std::vector<Weight>> SourceDistanceCache::Insert(
    VertexId source, GraphEpoch epoch, std::vector<Weight> distances,
    Weight radius, bool pruned) {
  // Rows dropped here are released after the shard is unlocked.
  std::shared_ptr<std::vector<Weight>> dropped;
  std::shared_ptr<const std::vector<Weight>> resident;
  {
    Shard& shard = ShardOf(source);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (radius != kInfWeight) ++shard.bounded_rows;
    if (pruned) ++shard.pruned_rows;
    auto it = shard.map.find(source);
    if (it != shard.map.end()) {
      Shard::Slot& slot = it->second;
      if (slot.epoch == epoch && radius <= slot.radius) {
        // First writer wins within an epoch unless the new row is
        // wider; refresh recency and drop the duplicate vector.
        shard.lru.splice(shard.lru.begin(), shard.lru, slot.lru_pos);
        resident = slot.distances;
      } else {
        // A stale entry, or a narrower one of this epoch: replace it.
        if (slot.epoch != epoch) ++shard.epoch_evictions;
        dropped = std::move(slot.distances);
        shard.lru.erase(slot.lru_pos);
        shard.map.erase(it);
      }
    }
    if (resident == nullptr) {
      while (shard.map.size() >= shard.capacity) {
        FANNR_CHECK(!shard.lru.empty());
        auto victim = shard.map.find(shard.lru.back());
        dropped = std::move(victim->second.distances);
        shard.map.erase(victim);
        shard.lru.pop_back();
        ++shard.evictions;
      }
      std::shared_ptr<std::vector<Weight>> entry(
          new std::vector<Weight>(std::move(distances)), Recycle{spares_});
      shard.lru.push_front(source);
      shard.map[source] = {entry, radius, epoch, shard.lru.begin()};
      resident = std::move(entry);
    }
  }
  spares_->Put(std::move(distances));  // a no-op unless this insert lost
  return resident;
}

std::vector<Weight> SourceDistanceCache::TakeSpareRow() {
  std::lock_guard<std::mutex> lock(spares_->mu);
  if (spares_->rows.empty()) return {};
  std::vector<Weight> row = std::move(spares_->rows.back());
  spares_->rows.pop_back();
  return row;
}

void SourceDistanceCache::Clear() {
  for (Shard& shard : shards_) {
    std::unordered_map<VertexId, Shard::Slot> dropped;
    std::lock_guard<std::mutex> lock(shard.mu);
    dropped.swap(shard.map);
    shard.lru.clear();
  }
}

size_t SourceDistanceCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

size_t SourceDistanceCache::spare_rows() const {
  std::lock_guard<std::mutex> lock(spares_->mu);
  return spares_->rows.size();
}

SourceDistanceCache::Stats SourceDistanceCache::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.evictions += shard.evictions;
    total.epoch_evictions += shard.epoch_evictions;
    total.narrow_misses += shard.narrow_misses;
    total.bounded_rows += shard.bounded_rows;
    total.pruned_rows += shard.pruned_rows;
  }
  return total;
}

}  // namespace fannr
