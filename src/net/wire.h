// Byte-level primitives for the FANN_R wire protocol.
//
// Everything on the wire is explicitly little-endian (the spec in
// DESIGN.md §2.9 is byte-for-byte), independent of host byte order:
// integers are assembled/disassembled a byte at a time, and doubles
// travel as the little-endian bytes of their IEEE-754 binary64 bit
// pattern. WireWriter appends to a growable byte buffer; WireReader
// walks a fixed span and fails closed — every accessor returns false
// once the declared bytes run out, and vector/string lengths are
// bounded by the bytes actually remaining, so a frame claiming a
// terabyte payload fails fast instead of near-OOM allocating.

#ifndef FANNR_NET_WIRE_H_
#define FANNR_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace fannr::net {

/// Appends little-endian primitives to a byte buffer.
class WireWriter {
 public:
  void U8(uint8_t value) { buf_.push_back(value); }

  void U16(uint16_t value) { AppendLe(value, 2); }
  void U32(uint32_t value) { AppendLe(value, 4); }
  void U64(uint64_t value) { AppendLe(value, 8); }

  void F64(double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }

  /// u32 byte length + raw bytes.
  void String(std::string_view value) {
    U32(static_cast<uint32_t>(value.size()));
    buf_.insert(buf_.end(), value.begin(), value.end());
  }

  /// u32 element count + elements.
  void VecU32(std::span<const uint32_t> values) {
    U32(static_cast<uint32_t>(values.size()));
    for (uint32_t v : values) U32(v);
  }

  /// u32 element count + binary64 elements.
  void VecF64(std::span<const double> values) {
    U32(static_cast<uint32_t>(values.size()));
    for (double v : values) F64(v);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void AppendLe(uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

/// Reads what WireWriter wrote from a fixed byte span. All methods
/// return false (leaving the output untouched or partially filled) on
/// exhausted input or a length header exceeding the remaining bytes;
/// once any read fails the reader stays failed.
class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  bool U8(uint8_t& value) {
    if (!Ensure(1)) return false;
    value = bytes_[pos_++];
    return true;
  }

  bool U16(uint16_t& value) { return ReadLe(value, 2); }
  bool U32(uint32_t& value) { return ReadLe(value, 4); }
  bool U64(uint64_t& value) { return ReadLe(value, 8); }

  bool F64(double& value) {
    uint64_t bits = 0;
    if (!U64(bits)) return false;
    std::memcpy(&value, &bits, sizeof(value));
    return true;
  }

  bool String(std::string& value) {
    uint32_t size = 0;
    if (!U32(size) || !Ensure(size)) return false;
    value.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), size);
    pos_ += size;
    return true;
  }

  bool VecU32(std::vector<uint32_t>& values) {
    uint32_t size = 0;
    if (!U32(size)) return false;
    // Each element takes 4 bytes; a count beyond the remaining payload
    // is corrupt — reject before allocating.
    if (static_cast<uint64_t>(size) * 4 > Remaining()) return Fail();
    values.resize(size);
    for (uint32_t& v : values) {
      if (!U32(v)) return false;
    }
    return true;
  }

  bool VecF64(std::vector<double>& values) {
    uint32_t size = 0;
    if (!U32(size)) return false;
    if (static_cast<uint64_t>(size) * 8 > Remaining()) return Fail();
    values.resize(size);
    for (double& v : values) {
      if (!F64(v)) return false;
    }
    return true;
  }

  size_t Remaining() const { return bytes_.size() - pos_; }
  bool ok() const { return ok_; }

  /// True iff every declared byte was consumed — decoders call this last
  /// so a payload with trailing junk is rejected, not silently accepted.
  bool AtEnd() const { return ok_ && pos_ == bytes_.size(); }

 private:
  bool Ensure(size_t n) {
    if (!ok_ || Remaining() < n) return Fail();
    return true;
  }

  bool Fail() {
    ok_ = false;
    return false;
  }

  template <typename T>
  bool ReadLe(T& value, int bytes) {
    if (!Ensure(static_cast<size_t>(bytes))) return false;
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += static_cast<size_t>(bytes);
    value = static_cast<T>(v);
    return true;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace fannr::net

#endif  // FANNR_NET_WIRE_H_
