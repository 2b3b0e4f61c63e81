// Shared binary framing primitives.
//
// Every durable or networked FELIP artifact — wire messages, ack frames,
// pipeline snapshots — is built from the same three ingredients: a
// little-endian primitive writer/reader over a byte vector, length-prefixed
// variable-size fields, and an xxHash64 seal so truncation and corruption
// are detected instead of silently mis-decoded. This header is that
// toolkit; the wire message formats (felip/wire/wire.h) and the snapshot
// section format (felip/snapshot/format.h) are both expressed with it.
//
// Readers never abort: out-of-bounds reads return false and leave the
// output untouched, because framed bytes come from untrusted peers or
// possibly-corrupt files.

#ifndef FELIP_WIRE_FRAMING_H_
#define FELIP_WIRE_FRAMING_H_

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "felip/common/hash.h"

namespace felip::wire {

// Writes `value` little-endian at `at` and returns the byte after it.
// Every encoder writes its primitives through here: Writer appends with
// it, and an encoder that sizes its frame up front (the report frames in
// wire.cc) writes the whole frame with it from one cursor that stays in a
// register.
template <typename T>
uint8_t* PutAt(uint8_t* at, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(at, &value, sizeof(T));
  return at + sizeof(T);
}

// Little-endian primitive writer that appends to a byte vector.
class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    const size_t offset = out_->size();
    out_->resize(offset + sizeof(T));
    PutAt(out_->data() + offset, value);
  }

  void PutBytes(const uint8_t* data, size_t len) {
    out_->insert(out_->end(), data, data + len);
  }

 private:
  std::vector<uint8_t>* out_;
};

// Bounds-checked little-endian reader.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& in) : in_(in) {}

  template <typename T>
  bool Get(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > in_.size()) return false;
    std::memcpy(value, in_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool GetBytes(uint8_t* data, size_t len) {
    if (pos_ + len > in_.size()) return false;
    // An empty vector's data() may be null, and memcpy from or to null is
    // undefined even for zero bytes.
    if (len > 0) std::memcpy(data, in_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool Skip(size_t len) {
    if (pos_ + len > in_.size()) return false;
    pos_ += len;
    return true;
  }

  // Reads a uint32 record count, rejecting it unless `count` records of
  // at least `min_record_bytes` each fit in the bytes left before
  // `payload_end` (default: the end of the input). Decoders must size
  // allocations only by counts read through here: one flipped bit in an
  // unchecked count asks for billions of records.
  bool GetCount(uint32_t* count, size_t min_record_bytes,
                size_t payload_end = SIZE_MAX) {
    const size_t end = payload_end < in_.size() ? payload_end : in_.size();
    uint32_t value = 0;
    if (!Get(&value) || pos_ > end) return false;
    if (static_cast<uint64_t>(value) * min_record_bytes > end - pos_) {
      return false;
    }
    *count = value;
    return true;
  }

  // Reads an unsigned length prefix of type T counting `elem_bytes`-byte
  // elements, rejecting it unless that many elements fit in the bytes
  // left. Like GetCount, this is what allocations may be sized by.
  template <typename T>
  bool GetLength(T* len, size_t elem_bytes) {
    static_assert(std::is_unsigned_v<T>);
    T value = 0;
    if (!Get(&value) || value > remaining() / elem_bytes) return false;
    *len = value;
    return true;
  }

  // Bytes at the current position (valid for remaining() bytes).
  const uint8_t* cursor() const { return in_.data() + pos_; }

  size_t position() const { return pos_; }
  size_t remaining() const { return in_.size() - pos_; }

 private:
  const std::vector<uint8_t>& in_;
  size_t pos_ = 0;
};

// Writes the salted xxHash64 of [begin, at) at `at`, the 8 bytes a frame
// reserved for its trailer, and returns the byte after them.
inline uint8_t* PutChecksumAt(const uint8_t* begin, uint8_t* at,
                              uint64_t salt) {
  return PutAt<uint64_t>(
      at, XxHash64Bytes(begin, static_cast<size_t>(at - begin), salt));
}

// Appends the salted xxHash64 of everything in `buffer` so far.
inline void SealChecksum(std::vector<uint8_t>* buffer, uint64_t salt) {
  const size_t body = buffer->size();
  buffer->resize(body + sizeof(uint64_t));
  PutChecksumAt(buffer->data(), buffer->data() + body, salt);
}

// Verifies a SealChecksum trailer over `buffer`. False when the buffer is
// too short to carry one or the recomputed hash disagrees.
inline bool CheckSealedChecksum(const std::vector<uint8_t>& buffer,
                                uint64_t salt) {
  if (buffer.size() < sizeof(uint64_t)) return false;
  const size_t body = buffer.size() - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, buffer.data() + body, sizeof(stored));
  return XxHash64Bytes(buffer.data(), body, salt) == stored;
}

}  // namespace felip::wire

#endif  // FELIP_WIRE_FRAMING_H_
