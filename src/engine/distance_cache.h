// A sharded, read-mostly cache of single-source distance vectors.
//
// FANN_R batch workloads evaluate g_phi(p, Q) for overlapping candidate
// sets: distinct queries in a batch share the data set P (and often hit
// the same R-List / IER candidate prefixes), so the SSSP from a candidate
// p is recomputed many times under per-query execution. This cache keys
// the settled distance vector delta(p, .) by its source vertex and
// shares it across all queries and worker threads of a batch.
//
// Design:
//   * Entries are immutable once inserted and handed out as
//     shared_ptr<const vector>, so readers hold no lock while consuming
//     distances — only the brief shard-map lookup is serialized.
//   * Every entry is stamped with a radius r (DijkstraSearch::SsspInto):
//     the row holds the exact distance of every vertex whose distance is
//     <= r, and a value > r everywhere else. A full row has r = infinity.
//     A lookup presents the query's Q and hits only when every q has
//     row[q] <= r; a resident row too narrow for Q is a *narrow* miss
//     (counted in Stats::misses and Stats::narrow_misses). Because a row
//     with radius r holds exactly the vertices within r, any row of
//     radius >= r serves whatever a row of radius r serves. A miss on
//     an absent source also says whether its shard is full (an insert
//     would evict), which is when CachedSsspEngine bounds the row.
//   * The key space is split over independently-locked shards
//     (source % num_shards) so concurrent lookups of different sources
//     rarely contend.
//   * Each shard evicts in LRU order against a per-shard entry budget,
//     bounding resident memory at capacity * |V| * sizeof(Weight) total.
//   * Insertion is first-writer-wins within an epoch, except that a
//     strictly wider radius replaces the resident row: if two threads
//     compute delta(p, .) concurrently, the loser's vector is discarded
//     and the resident one returned. Dijkstra is deterministic for a
//     fixed graph and source, so every row agrees bit for bit on the
//     vertices within its radius, and query results never depend on
//     which thread won the race.
//   * Every entry is stamped with the graph epoch it was computed under
//     (see Graph::epoch() and dynamic/update.h). A lookup that presents a
//     newer epoch treats the entry as absent and lazily reclaims it — no
//     stop-the-world flush is ever needed after a weight update, and a
//     stale vector is structurally unreturnable. Reclaims are counted
//     separately (Stats::epoch_evictions) from capacity evictions.
//     First-writer-wins only applies within an epoch; an insert carrying
//     a newer epoch replaces the resident entry.
//   * Rows are recycled: when the last reference to a dropped row goes
//     (capacity eviction, stale reclaim, a narrow row replaced, a losing
//     insert — in the cache or in a reader that held it longer), its
//     buffer moves into a small pool of spare rows, which the miss path
//     takes its next row from (TakeSpareRow). The hand-off runs in the
//     row's shared_ptr deleter, so it is ordered after every reader's
//     last access by the reference count itself; a buffer is never
//     reused while anyone still reads it. The pool's capacity is the
//     number of rows the cache's users compute at once (the batch
//     engine's worker count), so a full pool holds at most one row per
//     worker.

#ifndef FANNR_ENGINE_DISTANCE_CACHE_H_
#define FANNR_ENGINE_DISTANCE_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace fannr {

/// Thread-safe LRU cache: source vertex -> immutable distance vector.
class SourceDistanceCache {
 public:
  /// Aggregate counters (summed over shards; each shard's counters are
  /// updated under its lock, so the totals are exact once the batch has
  /// quiesced).
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;           ///< Every miss, narrow ones included.
    size_t evictions = 0;        ///< Capacity (LRU) evictions.
    size_t epoch_evictions = 0;  ///< Lazy reclaims of epoch-stale entries.
    size_t narrow_misses = 0;    ///< Resident rows too narrow for the Q.
    size_t bounded_rows = 0;     ///< Inserts of rows with a finite radius.
    /// Bounded rows that stopped on a caller's g_phi bound before
    /// serving Q (a subset of bounded_rows).
    size_t pruned_rows = 0;
  };

  /// What a Lookup found for its source.
  enum class Probe {
    kHit,         ///< A row of this epoch that serves the targets.
    kAbsent,      ///< No row; the source's shard has room for one.
    kAbsentFull,  ///< No row; the shard is full, so an insert evicts.
    kStale,       ///< A row of another epoch, now reclaimed.
    kNarrow,      ///< A row of this epoch whose radius misses a target.
  };

  /// `capacity` bounds the total resident entries (>= 1 enforced);
  /// `num_shards` fixes the lock striping (>= 1 enforced; rounded down to
  /// at most `capacity` so every shard can hold an entry); `spare_rows`
  /// caps the pool of recycled row buffers (0 = no recycling).
  explicit SourceDistanceCache(size_t capacity, size_t num_shards = 16,
                               size_t spare_rows = 0);

  /// The distance vector of `source` as computed under graph `epoch`, or
  /// nullptr on miss. The row serves `targets` only if each target's
  /// distance is within the row's radius; otherwise the lookup is a
  /// narrow miss. An entry stamped with a different epoch is treated as a
  /// miss AND erased on the spot (counted in Stats::epoch_evictions) —
  /// stale distances are never returned. `probe`, when non-null,
  /// receives what was found. A hit refreshes the entry's LRU position.
  std::shared_ptr<const std::vector<Weight>> Lookup(
      VertexId source, GraphEpoch epoch,
      std::span<const VertexId> targets = {}, Probe* probe = nullptr);

  /// Inserts delta(source, .) computed under graph `epoch` with radius
  /// `radius` (see DijkstraSearch::SsspInto), evicting the
  /// least-recently-used entry of the shard if it is full. If the source
  /// is already resident at the SAME epoch the existing entry wins and
  /// `distances` is discarded, unless `radius` is strictly wider, in
  /// which case it replaces the resident row; if resident at a DIFFERENT
  /// epoch the stale entry is replaced (counted in
  /// Stats::epoch_evictions). The resident vector is returned either
  /// way; it serves every target the inserted row served. `pruned`
  /// marks a row that stopped on a caller's g_phi bound (counted in
  /// Stats::pruned_rows); it is stored like any other row.
  std::shared_ptr<const std::vector<Weight>> Insert(
      VertexId source, GraphEpoch epoch, std::vector<Weight> distances,
      Weight radius = kInfWeight, bool pruned = false);

  /// Storage for the next row a miss computes: a recycled row's buffer
  /// (its contents are garbage) or, when the pool is empty, an empty
  /// vector.
  std::vector<Weight> TakeSpareRow();

  /// Drops every entry (counters are kept).
  void Clear();

  Stats stats() const;

  /// Resident entry count, summed over shards (exact when quiesced).
  size_t size() const;

  /// Buffers waiting in the spare-row pool.
  size_t spare_rows() const;

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  // Buffers of dropped rows. Shared with every row's deleter, so it
  // outlives the cache while a reader still holds a row.
  struct SparePool {
    mutable std::mutex mu;
    std::vector<std::vector<Weight>> rows;
    size_t capacity = 0;

    // Keeps `row`'s buffer if the pool has room, else frees it.
    void Put(std::vector<Weight>&& row);
  };

  // A row's deleter: hands the buffer to the pool, then frees the
  // vector object.
  struct Recycle {
    std::shared_ptr<SparePool> pool;
    void operator()(std::vector<Weight>* row) const;
  };


  // Cache-line aligned: adjacent shards' mutexes and counters must not
  // share a line, or un-contended locks on different shards still
  // ping-pong the line between cores (false sharing).
  struct alignas(64) Shard {
    mutable std::mutex mu;
    // LRU list of sources, most recent at front; map values hold the
    // entry plus its list position for O(1) refresh.
    std::list<VertexId> lru;
    struct Slot {
      std::shared_ptr<std::vector<Weight>> distances;
      Weight radius = kInfWeight;
      GraphEpoch epoch = 0;
      std::list<VertexId>::iterator lru_pos;
    };
    std::unordered_map<VertexId, Slot> map;
    size_t capacity = 0;
    size_t hits = 0;
    size_t misses = 0;
    size_t evictions = 0;
    size_t epoch_evictions = 0;
    size_t narrow_misses = 0;
    size_t bounded_rows = 0;
    size_t pruned_rows = 0;
  };

  Shard& ShardOf(VertexId source) {
    return shards_[source % shards_.size()];
  }

  size_t capacity_;
  std::vector<Shard> shards_;
  std::shared_ptr<SparePool> spares_;
};

}  // namespace fannr

#endif  // FANNR_ENGINE_DISTANCE_CACHE_H_
