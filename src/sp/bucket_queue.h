// The frontier of DijkstraSearch::SsspInto and IncrementalNnSearch:
// Dial's bucket queue over real weights, or a heap when the graph's
// weights rule the ring out (Graph::bucket_shape). Bucket b holds the
// entries with floor(d * inv_width) == b, inv_width = 1 / w_min, drained
// in any order. The kernels skip stale entries and push a vertex again
// whenever its label strictly improves, even after its scan; an index
// below the bucket being drained is clamped into it, one beyond the ring
// into its last slot. Between steps every queued entry in bucket b has
// d * inv_width >= b, so a label that Below() accepts is final: a vertex
// whose label is not final has, on a shortest path to it, a queued
// predecessor whose final label is no larger (weights are > 0, rounding
// is monotone). That is the bounded SsspInto's stop rule and INE's rule
// for reporting a hit.

#ifndef FANNR_SP_BUCKET_QUEUE_H_
#define FANNR_SP_BUCKET_QUEUE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/flat_heap.h"
#include "graph/graph.h"

namespace fannr {

class BucketQueue {
 public:
  /// Empties the queue, shapes it for `shape` and queues `source` at 0.
  /// Clears only the slots the last search left non-empty, so a warm
  /// reset costs O(1) in the ring's size.
  void Reset(const BucketShape& shape, VertexId source) {
    for (; !open_.empty(); open_.pop()) {
      slot_head_[open_.top() & mask_] = kNone;
    }
    Reserve(shape, 0);
    slot_head_.resize(shape.ring, kNone);
    inv_width_ = shape.inv_width;
    mask_ = shape.ring - 1;
    pool_.clear();
    free_head_ = kNone;
    heap_.clear();
    if (inv_width_ == 0.0) return heap_.push({0.0, source});
    slot_head_[0] = NewEntry({0.0, source, kNone});
    open_.push(0);
  }

  /// Grows the storage to the ring of `shape` and to `entries` queued
  /// at once (in either mode).
  void Reserve(const BucketShape& shape, size_t entries) {
    if (shape.ring > slot_head_.capacity()) {
      RecordFrontierGrowth();
      slot_head_.reserve(shape.ring);
    }
    open_.reserve(shape.ring);  // ids in open_ are distinct slots
    heap_.reserve(entries);
    if (entries > pool_.capacity()) {
      RecordFrontierGrowth();
      pool_.reserve(entries);
    }
  }

  bool empty() const {
    return inv_width_ == 0.0 ? heap_.empty() : open_.empty();
  }

  /// One step: calls visit(d, v, push) for every entry of the lowest
  /// open bucket (heap: at the top distance), including entries pushed
  /// into it meanwhile; push(d, v) queues v at distance d. With `all`,
  /// steps until the queue is empty, with no step boundaries on the heap
  /// (a full row needs no check between steps). Requires !empty().
  template <typename Visit>
  void Drain(Visit&& visit, bool all = false) {
    if (inv_width_ == 0.0) {
      return PopHeap(visit, all ? kInfWeight : heap_.top().first);
    }
    DrainRing(visit, all);
  }

  /// True when every queued entry has a distance above `d`, so a label
  /// d is final. Valid between steps.
  bool Below(Weight d) const {
    if (inv_width_ == 0.0) return heap_.empty() || d < heap_.top().first;
    return open_.empty() || d * inv_width_ < NextBucket();
  }

  /// The largest d that Below() accepts (kInfWeight when empty).
  Weight Radius() const {
    if (empty()) return kInfWeight;
    if (inv_width_ == 0.0) {
      return std::nextafter(heap_.top().first, -kInfWeight);
    }
    // Rounded multiplication is monotone in d, so step from
    // bound / inv_width to the edge one double at a time (a few steps).
    const Weight bound = NextBucket();
    Weight r = std::min(bound / inv_width_, std::numeric_limits<Weight>::max());
    while (r > 0.0 && r * inv_width_ >= bound) r = std::nextafter(r, 0.0);
    for (Weight up = std::nextafter(r, kInfWeight); up * inv_width_ < bound;
         up = std::nextafter(up, kInfWeight)) {
      r = up;
    }
    return r;
  }

 private:
  // One bucket entry; `next` threads it onto its bucket's list or onto
  // the free list.
  struct Entry {
    Weight dist;
    VertexId vertex;
    uint32_t next;
  };
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  template <typename Visit>
  void PopHeap(Visit& visit, Weight until) {
    const auto push = [this](Weight d, VertexId v) { heap_.push({d, v}); };
    while (!heap_.empty() && heap_.top().first <= until) {
      const auto [d, v] = heap_.top();
      heap_.pop();
      visit(d, v, push);
    }
  }

  // Drains the lowest open bucket, or with `all` every bucket in turn.
  // The push runs on locals, which the kernels' label stores cannot
  // force the compiler to reload.
  template <typename Visit>
  void DrainRing(Visit& visit, bool all) {
    const Weight inv_width = inv_width_;
    const uint64_t mask = mask_;
    uint32_t* const head = slot_head_.data();
    uint64_t cur = 0;   // the bucket being drained
    uint64_t last = 0;  // the furthest bucket the ring holds
    Weight last_f = 0.0;
    const auto push = [&](Weight d, VertexId v) {
      const Weight f = d * inv_width;
      const uint64_t bucket =
          std::clamp(f < last_f ? static_cast<uint64_t>(f) : last, cur, last);
      uint32_t& slot = head[bucket & mask];
      if (slot == kNone && bucket != cur) open_.push(bucket);
      slot = NewEntry({d, v, slot});
    };
    do {
      cur = open_.top();
      last = cur + mask;
      last_f = static_cast<Weight>(last);
      uint32_t& list = head[cur & mask];
      while (list != kNone) {
        const uint32_t idx = list;
        const Entry entry = pool_[idx];
        list = entry.next;
        pool_[idx].next = free_head_;
        free_head_ = idx;
        visit(entry.dist, entry.vertex, push);
      }
      open_.pop();
    } while (all && !open_.empty());
  }

  // Takes an entry from the free list, or grows the pool by one.
  uint32_t NewEntry(const Entry& entry) {
    const uint32_t idx = free_head_;
    if (idx != kNone) {
      free_head_ = pool_[idx].next;
      pool_[idx] = entry;
      return idx;
    }
    FANNR_DCHECK(pool_.size() < kNone);
    if (pool_.size() == pool_.capacity()) RecordFrontierGrowth();
    pool_.push_back(entry);
    return static_cast<uint32_t>(pool_.size() - 1);
  }

  // The next open bucket's id, as a lower bound on d * inv_width of
  // every queued entry; ids past 2^53 would round, so they count as 2^53.
  Weight NextBucket() const {
    return static_cast<Weight>(std::min(open_.top(), uint64_t{1} << 53));
  }

  Weight inv_width_ = 0.0;  // 0: heap mode
  uint64_t mask_ = 0;
  // Slot b & mask_ heads bucket b's list in pool_; open_ holds the ids
  // of non-empty buckets, so empty ones are never scanned. Drained
  // entries go onto free_head_ and are reused first, so the pool only
  // grows to the live frontier.
  std::vector<uint32_t> slot_head_;
  std::vector<Entry> pool_;
  uint32_t free_head_ = kNone;
  FlatHeap<uint64_t> open_;
  FlatHeap<std::pair<Weight, VertexId>> heap_;
};

}  // namespace fannr

#endif  // FANNR_SP_BUCKET_QUEUE_H_
