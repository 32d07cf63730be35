// A set of vertices with O(1) membership tests and member indexing.
//
// FANN_R queries work with two vertex sets — the data points P and the
// query points Q. Algorithms need both iteration over members and constant
// time "is v in P?" / "which member of Q is v?" lookups; this class
// provides both.

#ifndef FANNR_GRAPH_VERTEX_SET_H_
#define FANNR_GRAPH_VERTEX_SET_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "graph/graph.h"

namespace fannr {

/// An immutable set of distinct vertices of one graph. Membership and
/// index lookups go through an open-addressing table of (vertex, member
/// index) slots sized to the next power of two >= 2 * size(), so
/// construction and memory are O(|set|), independent of |V|, and
/// lookups are O(1) expected.
///
/// A lookup hashes and probes, so it costs a few times a plain array
/// load (about 3.5 ns against 1 ns in a sweep over every id of the TEST
/// graph), and a set of nearly every vertex takes 16-32 bytes per
/// vertex, not the 4 of a dense index. Kernels that test membership once
/// per settled vertex spend most of their time in the expansion itself,
/// so they slow down by at most about 10%; see EXPERIMENTS.md, "Dense P".
class IndexedVertexSet {
 public:
  /// Builds the set. `members` must be distinct vertices < num_vertices;
  /// aborts otherwise (see TryCreate for untrusted ids).
  IndexedVertexSet(size_t num_vertices, std::vector<VertexId> members)
      : num_vertices_(num_vertices), members_(std::move(members)) {
    const Fault fault = Index();
    FANNR_CHECK(fault.kind != Fault::kOutOfRange &&
                "vertex id out of range");
    FANNR_CHECK(fault.kind != Fault::kDuplicate && "duplicate vertex in set");
  }

  /// Non-aborting build for untrusted ids (e.g. from the wire). Returns
  /// the set, or nullptr with `*error` set to "vertex id N out of range
  /// (graph has M vertices)" — for the first out-of-range id — or, when
  /// every id is in range, "contains a duplicate vertex id".
  static std::unique_ptr<IndexedVertexSet> TryCreate(
      size_t num_vertices, std::vector<VertexId> members,
      std::string* error) {
    std::unique_ptr<IndexedVertexSet> set(
        new IndexedVertexSet(num_vertices, std::move(members), Unchecked{}));
    const Fault fault = set->Index();
    switch (fault.kind) {
      case Fault::kNone:
        return set;
      case Fault::kOutOfRange:
        *error = "vertex id " + std::to_string(fault.id) +
                 " out of range (graph has " + std::to_string(num_vertices) +
                 " vertices)";
        return nullptr;
      case Fault::kDuplicate:
        *error = "contains a duplicate vertex id";
        return nullptr;
    }
    return nullptr;
  }

  /// Number of members.
  size_t size() const { return members_.size(); }

  bool empty() const { return members_.empty(); }

  /// Members in insertion order.
  std::span<const VertexId> members() const { return members_; }

  /// The i-th member.
  VertexId operator[](size_t i) const {
    FANNR_DCHECK(i < members_.size());
    return members_[i];
  }

  /// True if `v` is in the set.
  bool Contains(VertexId v) const { return IndexOf(v) != kNotMember; }

  /// Position of `v` in members(), or kNotMember if absent.
  uint32_t IndexOf(VertexId v) const {
    FANNR_DCHECK(v < num_vertices_);
    // Linear probing ends at v's slot or at an empty one; the table is
    // at most half full, so an empty slot always exists.
    for (size_t s = Hash(v) & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.vertex == v || slot.index == kNotMember) return slot.index;
    }
  }

  static constexpr uint32_t kNotMember = 0xFFFFFFFFu;

 private:
  // A table slot; index == kNotMember marks it empty.
  struct Slot {
    VertexId vertex = 0;
    uint32_t index = kNotMember;
  };

  struct Fault {
    enum Kind { kNone, kOutOfRange, kDuplicate } kind = kNone;
    VertexId id = 0;
  };

  struct Unchecked {};
  IndexedVertexSet(size_t num_vertices, std::vector<VertexId> members,
                   Unchecked)
      : num_vertices_(num_vertices), members_(std::move(members)) {}

  // The splitmix64 finalizer: every input bit flips each output bit with
  // probability ~1/2, so strided ids (grid rows, arithmetic
  // progressions) spread over the table instead of clustering.
  static uint64_t Hash(uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  // Range-checks every member, then fills the table; the first fault
  // found (all range faults before any duplicate) is returned.
  Fault Index() {
    for (VertexId v : members_) {
      if (v >= num_vertices_) return {Fault::kOutOfRange, v};
    }
    FANNR_CHECK(members_.size() < kNotMember);
    slots_.assign(std::bit_ceil(2 * members_.size()), Slot{});
    mask_ = slots_.size() - 1;
    for (size_t i = 0; i < members_.size(); ++i) {
      const VertexId v = members_[i];
      size_t s = Hash(v) & mask_;
      while (slots_[s].index != kNotMember) {
        if (slots_[s].vertex == v) return {Fault::kDuplicate, v};
        s = (s + 1) & mask_;
      }
      slots_[s] = Slot{v, static_cast<uint32_t>(i)};
    }
    return {};
  }

  size_t num_vertices_;
  std::vector<VertexId> members_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

}  // namespace fannr

#endif  // FANNR_GRAPH_VERTEX_SET_H_
