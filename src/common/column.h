// Column<T>: a contiguous array that is either OWNED (a std::vector
// built in memory) or BORROWED (a span into an mmap-ed index file).
//
// Every index in this codebase (CSR graph, hub labels, G-tree, CH)
// stores its payload as flat POD arrays. Build paths fill them as
// vectors; the mmap load path (graph/index_io.h) wants to point the
// same members straight into the file mapping without copying. Column
// is that one abstraction: read access (data / size / operator[] /
// iteration) is identical in both states and costs one predictable
// branch on a member bool; mutation through vec() is reserved for build
// paths and aborts on a borrowed column. Element-level writes through
// data()/operator[] ARE allowed on borrowed columns — the mapping is
// MAP_PRIVATE copy-on-write (see common/mmap_file.h), so e.g. live
// weight updates against an mmap-loaded graph mutate anonymous page
// copies, never the file.
//
// A borrowed column does NOT own its bytes: whoever created the span
// (the index object holding the MmapFile) must keep the mapping alive
// for the column's lifetime.

#ifndef FANNR_COMMON_COLUMN_H_
#define FANNR_COMMON_COLUMN_H_

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace fannr {

template <typename T>
class Column {
  static_assert(std::is_trivially_copyable_v<T>,
                "Column is for flat POD payloads only");

 public:
  Column() = default;
  // Implicit on purpose: build code keeps assigning vectors to members.
  Column(std::vector<T> values) : vec_(std::move(values)) {}
  Column& operator=(std::vector<T> values) {
    vec_ = std::move(values);
    ptr_ = nullptr;
    size_ = 0;
    borrowed_ = false;
    return *this;
  }

  /// Wraps [p, p + n) without copying. The memory must outlive the
  /// column; writes go through (copy-on-write when p is in a
  /// MAP_PRIVATE mapping).
  static Column Borrow(T* p, size_t n) {
    Column c;
    c.ptr_ = p;
    c.size_ = n;
    c.borrowed_ = true;
    return c;
  }

  bool borrowed() const { return borrowed_; }
  size_t size() const { return borrowed_ ? size_ : vec_.size(); }
  bool empty() const { return size() == 0; }

  const T* data() const { return borrowed_ ? ptr_ : vec_.data(); }
  T* data() { return borrowed_ ? ptr_ : vec_.data(); }

  const T& operator[](size_t i) const { return data()[i]; }
  T& operator[](size_t i) { return data()[i]; }
  const T& front() const { return data()[0]; }
  const T& back() const { return data()[size() - 1]; }

  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }

  /// The backing vector, for build paths that resize, push_back, or
  /// move it. Aborts on a borrowed column: structural mutation of an
  /// mmap view is a programming error.
  std::vector<T>& vec() {
    FANNR_CHECK(!borrowed_);
    return vec_;
  }
  const std::vector<T>& vec() const {
    FANNR_CHECK(!borrowed_);
    return vec_;
  }

  /// Heap bytes owned by this column (zero when borrowed — the mapping
  /// is accounted by its owner).
  size_t memory_bytes() const {
    return borrowed_ ? 0 : vec_.capacity() * sizeof(T);
  }

 private:
  std::vector<T> vec_;
  T* ptr_ = nullptr;
  size_t size_ = 0;
  bool borrowed_ = false;
};

}  // namespace fannr

#endif  // FANNR_COMMON_COLUMN_H_
