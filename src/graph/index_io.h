// On-disk format for persisted graphs and indexes (CSR graph, hub
// labels, G-tree, CH): one relocatable arena file per object, opened by
// mmap.
//
// Every file starts with the object's magic number, the format version
// and the fingerprint of the graph it was built against. The
// fingerprint (vertex count + edge count + weight checksum, see
// graph/graph.h) is the load-time identity check: an index file saved
// against a different road network — or against this network before a
// weight update — is rejected by LoadMmap instead of silently serving
// distances from the wrong graph. Format history: v1 files had no
// version or fingerprint after the magic; v2 was a stream format read
// into heap vectors. Both fail the version check below and are
// rejected, never misread. v3 (this format) is a section table of
// 64-byte-aligned flat POD arrays, designed to be opened via mmap with
// O(header) validation.

#ifndef FANNR_GRAPH_INDEX_IO_H_
#define FANNR_GRAPH_INDEX_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/column.h"
#include "common/mmap_file.h"
#include "graph/fingerprint.h"

namespace fannr {

/// Version word of every file this format writes.
inline constexpr uint32_t kArenaFormatVersion = 3;

// ---------------------------------------------------------------------------
// Format v3: relocatable arena files.
//
// Layout (all fields little-endian native, offsets in bytes):
//
//   0   u64  magic                 (one per object kind)
//   8   u32  version               (= kArenaFormatVersion)
//   12  u64  fingerprint.vertices
//   20  u64  fingerprint.edges
//   28  u64  fingerprint.weight_checksum
//   36  u32  section_count
//   40  u64  flags                 (bit 0: payload checksum present)
//   48  u64  payload_checksum      (over bytes [64, file_bytes))
//   56  u64  file_bytes            (total file size; must match the map)
//   64  {u64 offset, u64 bytes} x section_count   (the section table)
//   ... sections, each offset 64-byte aligned, zero padding between
//
// Opening is O(header): map the file, check magic/version/fingerprint,
// check the section table is monotone, aligned, and in bounds. The
// payload checksum over every byte past the header is verified only
// under ArenaValidation::kFull — the explicit trade of the v3 format is
// that a default open trusts the payload bytes structurally validated
// by the per-index LoadMmap and defers whole-file integrity to the caller.
// ---------------------------------------------------------------------------

/// How much of an arena file Open verifies before handing out views.
enum class ArenaValidation {
  kHeaderOnly,  // magic/version/fingerprint + section-table bounds
  kFull,        // kHeaderOnly + payload checksum over [64, file_bytes)
};

/// Order-dependent 64-bit checksum used for the v3 payload, streamable
/// in arbitrary chunk sizes.
class ArenaChecksum {
 public:
  void Absorb(const void* data, size_t bytes);
  uint64_t Finish() const;

 private:
  uint64_t state_ = 0xFA22A81A00000003ULL;
  uint64_t total_ = 0;
  unsigned char pending_[8] = {};
  size_t pending_len_ = 0;
};

/// Collects flat POD sections and writes one v3 arena file. Sections
/// added by pointer/vector/Column/span are NOT copied — they must stay
/// alive until Write returns. AddScalar copies its argument.
class ArenaWriter {
 public:
  template <typename T>
  void Add(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    AddChunk(data, count * sizeof(T));
    EndSection();
  }
  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(values.data(), values.size());
  }
  template <typename T>
  void Add(const Column<T>& values) {
    Add(values.data(), values.size());
  }
  /// Adds one section holding the concatenation of `parts`, in order,
  /// written straight from each part: nothing is gathered into a copy.
  template <typename T>
  void AddGather(std::span<const std::span<const T>> parts) {
    static_assert(std::is_trivially_copyable_v<T>);
    for (const std::span<const T>& part : parts) {
      AddChunk(part.data(), part.size_bytes());
    }
    EndSection();
  }
  /// Copies `value` into writer-owned storage and adds it as a
  /// one-element section.
  template <typename T>
  void AddScalar(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    owned_.push_back(std::make_unique<std::byte[]>(sizeof(T)));
    std::memcpy(owned_.back().get(), &value, sizeof(T));
    AddChunk(owned_.back().get(), sizeof(T));
    EndSection();
  }

  /// Writes header + section table + aligned sections + checksum to a
  /// temporary file next to `path`, then renames it over `path`. A
  /// process that has the old file mapped keeps reading the old bytes
  /// (truncating in place would SIGBUS its unread pages). Returns false
  /// on any I/O failure, leaving `path` untouched.
  bool Write(const std::string& path, uint64_t magic,
             const GraphFingerprint& fingerprint) const;

 private:
  struct Chunk {
    const void* data;
    uint64_t bytes;
  };
  // A section is chunks_[chunk_begin, chunk_end), back to back.
  struct Section {
    size_t chunk_begin;
    size_t chunk_end;
    uint64_t bytes;
  };

  void AddChunk(const void* data, uint64_t bytes) {
    chunks_.push_back({data, bytes});
  }
  void EndSection() {
    const size_t begin =
        sections_.empty() ? 0 : sections_.back().chunk_end;
    uint64_t bytes = 0;
    for (size_t c = begin; c < chunks_.size(); ++c) bytes += chunks_[c].bytes;
    sections_.push_back({begin, chunks_.size(), bytes});
  }

  std::vector<Chunk> chunks_;
  std::vector<Section> sections_;
  std::vector<std::unique_ptr<std::byte[]>> owned_;
};

/// An opened v3 arena file: the mapping plus the validated section
/// table. Views returned by SectionArray point into the mapping and are
/// valid for the lifetime of this object (indexes keep the ArenaFile as
/// a member next to their borrowed Columns).
class ArenaFile {
 public:
  /// Maps `path` and validates per `validation`. Returns nullopt on any
  /// failure: unreadable file, bad magic/version, malformed section
  /// table, or (under kFull) checksum mismatch / checksum absent.
  /// The caller checks fingerprint() against its own expectation.
  static std::optional<ArenaFile> Open(const std::string& path,
                                       uint64_t magic,
                                       ArenaValidation validation);

  const GraphFingerprint& fingerprint() const { return fingerprint_; }
  size_t NumSections() const { return sections_.size(); }
  uint64_t SectionBytes(size_t i) const { return sections_[i].bytes; }

  /// Typed view of section `i`. Returns nullptr (count = 0) if the
  /// section's byte size is not a multiple of sizeof(T). An empty
  /// section yields a non-null placeholder pointer with count = 0 so
  /// Column::Borrow on the result is well-defined.
  template <typename T>
  T* SectionArray(size_t i, size_t& count) const {
    static_assert(std::is_trivially_copyable_v<T>);
    count = 0;
    if (i >= sections_.size()) return nullptr;
    const auto& s = sections_[i];
    if (s.bytes % sizeof(T) != 0) return nullptr;
    count = static_cast<size_t>(s.bytes / sizeof(T));
    return reinterpret_cast<T*>(map_.data() + s.offset);
  }

  /// Borrow section `i` as a Column<T>; aborts on a malformed section
  /// (callers validate with SectionArray first when the file is
  /// untrusted).
  template <typename T>
  Column<T> BorrowColumn(size_t i) const {
    size_t count = 0;
    T* p = SectionArray<T>(i, count);
    FANNR_CHECK(p != nullptr);
    return Column<T>::Borrow(p, count);
  }

  /// Reads the one-element section `i` written by AddScalar into `out`.
  /// Returns false on size mismatch.
  template <typename T>
  bool ReadScalar(size_t i, T& out) const {
    size_t count = 0;
    const T* p = SectionArray<T>(i, count);
    if (p == nullptr || count != 1) return false;
    std::memcpy(&out, p, sizeof(T));
    return true;
  }

 private:
  struct Section {
    uint64_t offset;
    uint64_t bytes;
  };

  MmapFile map_;
  GraphFingerprint fingerprint_;
  std::vector<Section> sections_;
};

}  // namespace fannr

#endif  // FANNR_GRAPH_INDEX_IO_H_
