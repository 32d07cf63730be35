#include "graph/index_io.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

namespace fannr {
namespace {

constexpr uint64_t kArenaHeaderBytes = 64;
constexpr uint64_t kArenaAlignment = 64;
constexpr uint64_t kArenaFlagHasChecksum = 1;
// A section table larger than this is corrupt, not big: every real
// index writes a fixed, small number of sections.
constexpr uint64_t kMaxSections = 1 << 20;

uint64_t AlignUp(uint64_t x) {
  return (x + (kArenaAlignment - 1)) & ~(kArenaAlignment - 1);
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

template <typename T>
T LoadPod(const std::byte* base, uint64_t offset) {
  T value;
  std::memcpy(&value, base + offset, sizeof(T));
  return value;
}

}  // namespace

void ArenaChecksum::Absorb(const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  total_ += bytes;
  if (pending_len_ > 0) {
    while (pending_len_ < sizeof(pending_) && bytes > 0) {
      pending_[pending_len_++] = *p++;
      --bytes;
    }
    if (pending_len_ < sizeof(pending_)) return;
    uint64_t word;
    std::memcpy(&word, pending_, sizeof(word));
    state_ = Mix64(state_ ^ word);
    pending_len_ = 0;
  }
  while (bytes >= sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    state_ = Mix64(state_ ^ word);
    p += sizeof(uint64_t);
    bytes -= sizeof(uint64_t);
  }
  while (bytes > 0) {
    pending_[pending_len_++] = *p++;
    --bytes;
  }
}

uint64_t ArenaChecksum::Finish() const {
  uint64_t state = state_;
  if (pending_len_ > 0) {
    unsigned char tail[8] = {};
    std::memcpy(tail, pending_, pending_len_);
    uint64_t word;
    std::memcpy(&word, tail, sizeof(word));
    state = Mix64(state ^ word);
  }
  // Folding in the length distinguishes trailing zero bytes from EOF.
  return Mix64(state ^ Mix64(total_));
}

bool ArenaWriter::Write(const std::string& path, uint64_t magic,
                        const GraphFingerprint& fingerprint) const {
  const uint64_t table_bytes = sections_.size() * 16;
  const uint64_t table_end = kArenaHeaderBytes + table_bytes;

  std::vector<uint64_t> offsets(sections_.size());
  uint64_t cursor = table_end;
  for (size_t i = 0; i < sections_.size(); ++i) {
    cursor = AlignUp(cursor);
    offsets[i] = cursor;
    cursor += sections_[i].bytes;
  }
  const uint64_t file_bytes = cursor;

  const std::string tmp_path = path + ".tmp." + std::to_string(getpid());
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) return false;

  ArenaChecksum checksum;
  const auto emit = [&out, &checksum](const void* data, uint64_t bytes) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
    checksum.Absorb(data, static_cast<size_t>(bytes));
  };

  // Header. The checksum slot is patched after the payload streams out.
  const uint32_t version = kArenaFormatVersion;
  const uint32_t section_count = static_cast<uint32_t>(sections_.size());
  const uint64_t flags = kArenaFlagHasChecksum;
  const uint64_t checksum_placeholder = 0;
  out.write(reinterpret_cast<const char*>(&magic), 8);
  out.write(reinterpret_cast<const char*>(&version), 4);
  out.write(reinterpret_cast<const char*>(&fingerprint.vertices), 8);
  out.write(reinterpret_cast<const char*>(&fingerprint.edges), 8);
  out.write(reinterpret_cast<const char*>(&fingerprint.weight_checksum), 8);
  out.write(reinterpret_cast<const char*>(&section_count), 4);
  out.write(reinterpret_cast<const char*>(&flags), 8);
  out.write(reinterpret_cast<const char*>(&checksum_placeholder), 8);
  out.write(reinterpret_cast<const char*>(&file_bytes), 8);

  // Section table, then payload with zeroed alignment padding — both
  // inside the checksum's coverage, [kArenaHeaderBytes, file_bytes).
  for (size_t i = 0; i < sections_.size(); ++i) {
    emit(&offsets[i], 8);
    emit(&sections_[i].bytes, 8);
  }
  static constexpr char kZeros[kArenaAlignment] = {};
  cursor = table_end;
  for (size_t i = 0; i < sections_.size(); ++i) {
    const uint64_t pad = offsets[i] - cursor;
    if (pad > 0) emit(kZeros, pad);
    const Section& s = sections_[i];
    for (size_t c = s.chunk_begin; c < s.chunk_end; ++c) {
      if (chunks_[c].bytes > 0) emit(chunks_[c].data, chunks_[c].bytes);
    }
    cursor = offsets[i] + s.bytes;
  }

  const uint64_t final_checksum = checksum.Finish();
  out.seekp(48);
  out.write(reinterpret_cast<const char*>(&final_checksum), 8);
  out.close();
  if (!out || std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

std::optional<ArenaFile> ArenaFile::Open(const std::string& path,
                                         uint64_t magic,
                                         ArenaValidation validation) {
  std::optional<MmapFile> map = MmapFile::Open(path);
  if (!map.has_value() || map->size() < kArenaHeaderBytes) return std::nullopt;
  const std::byte* base = map->data();

  if (LoadPod<uint64_t>(base, 0) != magic) return std::nullopt;
  if (LoadPod<uint32_t>(base, 8) != kArenaFormatVersion) return std::nullopt;

  ArenaFile result;
  result.fingerprint_.vertices = LoadPod<uint64_t>(base, 12);
  result.fingerprint_.edges = LoadPod<uint64_t>(base, 20);
  result.fingerprint_.weight_checksum = LoadPod<uint64_t>(base, 28);
  const uint32_t section_count = LoadPod<uint32_t>(base, 36);
  const uint64_t flags = LoadPod<uint64_t>(base, 40);
  const uint64_t stored_checksum = LoadPod<uint64_t>(base, 48);
  const uint64_t file_bytes = LoadPod<uint64_t>(base, 56);

  if (file_bytes != map->size()) return std::nullopt;
  if (section_count > kMaxSections) return std::nullopt;
  const uint64_t table_end = kArenaHeaderBytes + uint64_t{section_count} * 16;
  if (table_end > file_bytes) return std::nullopt;

  result.sections_.reserve(section_count);
  uint64_t prev_end = table_end;
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint64_t offset = LoadPod<uint64_t>(base, kArenaHeaderBytes + i * 16);
    const uint64_t bytes =
        LoadPod<uint64_t>(base, kArenaHeaderBytes + i * 16 + 8);
    if (offset % kArenaAlignment != 0) return std::nullopt;
    if (offset < prev_end) return std::nullopt;
    if (bytes > file_bytes || offset > file_bytes - bytes) return std::nullopt;
    prev_end = offset + bytes;
    result.sections_.push_back({offset, bytes});
  }

  if (validation == ArenaValidation::kFull) {
    // The checksum covers the table, the padding, and every section —
    // everything past the header — so a kFull open certifies every
    // byte the views can reach.
    if ((flags & kArenaFlagHasChecksum) == 0) return std::nullopt;
    ArenaChecksum checksum;
    checksum.Absorb(base + kArenaHeaderBytes,
                    static_cast<size_t>(file_bytes - kArenaHeaderBytes));
    if (checksum.Finish() != stored_checksum) return std::nullopt;
  }

  result.map_ = std::move(*map);
  return result;
}

}  // namespace fannr
