// A flat d-ary (4-ary) binary-free min-heap for search hot loops.
//
// Every shortest-path kernel in this codebase follows the same pattern:
// push (key, payload) entries, pop the minimum, skip entries that a
// cheaper "settled / stale" check proves outdated (decrease-key-free
// "lazy delete"). std::priority_queue serves that pattern but costs an
// allocation per search (its backing vector is a local), and its binary
// layout touches log2(n) scattered cache lines per sift. This heap fixes
// both:
//
//   * Flat, caller-owned storage. The heap object IS the scratch: search
//     objects hold one as a member, clear() between queries keeps the
//     grown capacity, so steady-state hot loops perform zero heap
//     allocations. ("Simpler is More", PAPERS.md: on large road networks
//     flat cache-friendly search structures beat pointer-heavy ones.)
//   * 4-ary layout: half the tree depth of a binary heap, and the four
//     children of a node are contiguous (children of i start at 4i + 1),
//     so one sift-down level usually costs one cache line instead of
//     two scattered ones. Pop-heavy Dijkstra loops are dominated by
//     sift-downs, which is exactly where the arity helps.
//
// Lazy delete + settled check (the decrease-key-free mode): instead of
// decreasing a resident entry's key, push a duplicate with the smaller
// key and, on pop, discard entries whose key is worse than the current
// known distance (or whose vertex is already settled). The heap itself
// stays oblivious — the idiom is entirely in the caller:
//
//   heap.clear();
//   heap.push({0.0, source});
//   while (!heap.empty()) {
//     auto [d, u] = heap.top();
//     heap.pop();
//     if (d > dist[u]) continue;     // lazy delete: stale duplicate
//     ...relax edges, push improved (nd, v) duplicates...
//   }
//
// Ordering contract: pop order is nondecreasing under Less and
// deterministic (a pure function of the push/pop sequence), but the
// relative order of Less-equal entries is unspecified and differs from
// std::priority_queue. Nothing in this codebase depends on tie order
// among equal keys — consumers either drain equal-key plateaus wholesale
// (exact_max, kfann) or canonicalize with explicit (key, id) comparators.
// Sites that need a total order make the id part of the comparator.
//
// Allocation accounting: every backing-store growth increments a global
// relaxed counter. Tests and benchmarks read deltas of
// FlatHeapAllocStats() around a workload to assert hot loops are
// allocation-free after warmup (bench/throughput.cc records the delta
// per cell as "heap_grows"). Frontiers that are not a FlatHeap (the
// ring of sp/bucket_queue.h) report their growths to the same counter
// through RecordFrontierGrowth().

#ifndef FANNR_COMMON_FLAT_HEAP_H_
#define FANNR_COMMON_FLAT_HEAP_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"

namespace fannr {

namespace internal_flat_heap {
inline std::atomic<uint64_t> g_grows{0};
}  // namespace internal_flat_heap

/// Cumulative (process-wide) FlatHeap allocation events. `grows` counts
/// backing-store growths across all FlatHeap instances; a delta of zero
/// over a workload proves every heap it touched ran allocation-free.
struct FlatHeapStats {
  uint64_t grows = 0;
};

inline FlatHeapStats FlatHeapAllocStats() {
  return FlatHeapStats{
      internal_flat_heap::g_grows.load(std::memory_order_relaxed)};
}

/// Counts one backing-store growth of a search frontier that is not a
/// FlatHeap, so FlatHeapAllocStats() covers every frontier.
inline void RecordFrontierGrowth() {
  internal_flat_heap::g_grows.fetch_add(1, std::memory_order_relaxed);
}

/// Min-heap on `Less` (top() is the Less-least element) over flat
/// contiguous storage. Not thread-safe; one instance per search object.
template <typename T, typename Less = std::less<T>>
class FlatHeap {
 public:
  static constexpr size_t kArity = 4;

  FlatHeap() = default;
  explicit FlatHeap(Less less) : less_(std::move(less)) {}

  bool empty() const { return data_.empty(); }
  size_t size() const { return data_.size(); }
  size_t capacity() const { return data_.capacity(); }

  /// Drops every entry, KEEPING the grown capacity — the whole point of
  /// holding the heap as a member across queries.
  void clear() { data_.clear(); }

  void reserve(size_t n) {
    if (n > data_.capacity()) {
      RecordFrontierGrowth();
      data_.reserve(n);
    }
  }

  const T& top() const {
    FANNR_DCHECK(!data_.empty());
    return data_.front();
  }

  void push(T value) {
    if (data_.size() == data_.capacity()) RecordFrontierGrowth();
    data_.push_back(std::move(value));
    SiftUp(data_.size() - 1);
  }

  void pop() {
    FANNR_DCHECK(!data_.empty());
    T last = std::move(data_.back());
    data_.pop_back();
    if (!data_.empty()) {
      data_.front() = std::move(last);
      SiftDown(0);
    }
  }

 private:
  void SiftUp(size_t i) {
    T value = std::move(data_[i]);
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!less_(value, data_[parent])) break;
      data_[i] = std::move(data_[parent]);
      i = parent;
    }
    data_[i] = std::move(value);
  }

  void SiftDown(size_t i) {
    T value = std::move(data_[i]);
    const size_t n = data_.size();
    while (true) {
      const size_t first = i * kArity + 1;
      if (first >= n) break;
      const size_t last = std::min(first + kArity, n);
      size_t best = first;
      for (size_t c = first + 1; c < last; ++c) {
        if (less_(data_[c], data_[best])) best = c;
      }
      if (!less_(data_[best], value)) break;
      data_[i] = std::move(data_[best]);
      i = best;
    }
    data_[i] = std::move(value);
  }

  std::vector<T> data_;
  [[no_unique_address]] Less less_;
};

}  // namespace fannr

#endif  // FANNR_COMMON_FLAT_HEAP_H_
