#include "sp/incremental_nn.h"

#include <algorithm>
#include <utility>

namespace fannr {

// Per-thread state shared by every search on the thread: the vertex
// numbering and the parked frontiers.
struct IncrementalNnSearch::ThreadState {
  // stamps[v] = epoch_tag | id when v holds an id in the current epoch.
  // Tags sit in the high 32 bits and only grow, so stamps[v] - epoch_tag
  // is below 2^32 exactly for current stamps.
  std::vector<uint64_t> stamps;
  uint64_t epoch_tag = uint64_t{1} << 32;
  uint32_t next_id = 0;
  uint32_t live = 0;
  // Frontier slots: a solve's i-th search takes slot i, so a repeated
  // solve finds every frontier already grown to its need.
  std::vector<Frontier> frontiers;
  std::vector<uint32_t> free_slots;  // parked slots below next_slot
  uint32_t next_slot = 0;

  uint32_t IdOf(VertexId v) {
    const uint64_t rel = stamps[v] - epoch_tag;
    if (rel < (uint64_t{1} << 32)) return static_cast<uint32_t>(rel);
    stamps[v] = epoch_tag | next_id;
    return next_id++;
  }

  void NewEpoch() {
    next_id = 0;
    next_slot = 0;
    free_slots.clear();
    epoch_tag += uint64_t{1} << 32;
    if (epoch_tag == 0) {  // 2^32 epochs later: clear the old stamps
      std::fill(stamps.begin(), stamps.end(), 0);
      epoch_tag = uint64_t{1} << 32;
    }
  }
};

IncrementalNnSearch::ThreadState& IncrementalNnSearch::ThisThread() {
  thread_local ThreadState state;
  return state;
}

IncrementalNnSearch::IncrementalNnSearch(const Graph& graph,
                                         VertexId source,
                                         const IndexedVertexSet& targets)
    : graph_(&graph), targets_(&targets), source_(source) {
  FANNR_CHECK(source < graph.NumVertices());
  ThreadState& state = ThisThread();
  thread_ = &state;
  ++state.live;
  if (state.stamps.size() < graph.NumVertices()) {
    state.stamps.resize(graph.NumVertices(), 0);
  }
  if (state.free_slots.empty()) {
    frontier_slot_ = state.next_slot++;
    if (frontier_slot_ == state.frontiers.size()) {
      state.frontiers.emplace_back();
      // Release() then parks slots without allocating.
      state.free_slots.reserve(state.frontiers.size());
    }
  } else {
    frontier_slot_ = state.free_slots.back();
    state.free_slots.pop_back();
  }
  frontier_ = std::move(state.frontiers[frontier_slot_]);

  const uint32_t id = state.IdOf(source);
  labels_.assign(std::max<size_t>(state.next_id, 64), kInfWeight);
  labels_[id] = 0.0;
  frontier_.queue.Reset(graph.bucket_shape(), source);
  frontier_.found.clear();
}

IncrementalNnSearch::~IncrementalNnSearch() { Release(); }

IncrementalNnSearch::IncrementalNnSearch(IncrementalNnSearch&& other) noexcept
    : graph_(other.graph_),
      targets_(other.targets_),
      source_(other.source_),
      thread_(std::exchange(other.thread_, nullptr)),
      frontier_slot_(other.frontier_slot_),
      frontier_(std::move(other.frontier_)),
      labels_(std::move(other.labels_)),
      buffered_(std::exchange(other.buffered_, std::nullopt)),
      exhausted_(std::exchange(other.exhausted_, true)) {}

IncrementalNnSearch& IncrementalNnSearch::operator=(
    IncrementalNnSearch&& other) noexcept {
  if (this != &other) {
    Release();
    graph_ = other.graph_;
    targets_ = other.targets_;
    source_ = other.source_;
    thread_ = std::exchange(other.thread_, nullptr);
    frontier_slot_ = other.frontier_slot_;
    frontier_ = std::move(other.frontier_);
    labels_ = std::move(other.labels_);
    buffered_ = std::exchange(other.buffered_, std::nullopt);
    exhausted_ = std::exchange(other.exhausted_, true);
  }
  return *this;
}

void IncrementalNnSearch::Release() {
  if (thread_ == nullptr) return;
  FANNR_DCHECK(thread_ == &ThisThread());
  thread_->frontiers[frontier_slot_] = std::move(frontier_);
  thread_->free_slots.push_back(frontier_slot_);
  if (--thread_->live == 0) thread_->NewEpoch();
  thread_ = nullptr;
}

std::optional<IncrementalNnSearch::Hit>
IncrementalNnSearch::FindNextTarget() {
  FANNR_DCHECK(thread_ == &ThisThread());
  ThreadState& state = *thread_;
  BucketQueue& queue = frontier_.queue;
  auto& found = frontier_.found;
  while (true) {
    // The nearest scanned target is reported once its label is final;
    // one improved since its scan waits for its next scan.
    while (!found.empty()) {
      const auto [d, v] = found.top();
      const bool rescanned = labels_[state.IdOf(v)] < d;
      if (!rescanned && !queue.Below(d)) break;
      found.pop();
      if (!rescanned) return Hit{v, d};
    }
    if (queue.empty()) break;
    queue.Drain([&](Weight d, VertexId u, auto& push) {
      if (d > labels_[state.IdOf(u)]) return;  // stale entry
      const auto arcs = graph_->Neighbors(u);
      // Ids handed out below are next_id onwards, so one resize covers
      // every arc of this vertex.
      const size_t need = size_t{state.next_id} + arcs.size();
      if (labels_.size() < need) {
        labels_.resize(std::max(need, 2 * labels_.size()), kInfWeight);
      }
      for (const Arc& a : arcs) {
        const Weight nd = d + a.weight;
        Weight& to = labels_[state.IdOf(a.to)];
        if (nd < to) {
          to = nd;
          push(nd, a.to);
        }
      }
      if (targets_->Contains(u)) found.push({d, u});
    });
  }
  exhausted_ = true;
  return std::nullopt;
}

std::optional<IncrementalNnSearch::Hit> IncrementalNnSearch::Next() {
  if (buffered_.has_value()) return std::exchange(buffered_, std::nullopt);
  if (exhausted_) return std::nullopt;
  return FindNextTarget();
}

const IncrementalNnSearch::Hit* IncrementalNnSearch::Peek() {
  if (!buffered_.has_value()) {
    if (exhausted_) return nullptr;
    buffered_ = FindNextTarget();
    if (!buffered_.has_value()) return nullptr;
  }
  return &*buffered_;
}

}  // namespace fannr
