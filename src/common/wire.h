// Little-endian byte codec shared by every serializer in the repo.
//
// Every wire format is built on these two classes: the write-ahead journal's frames and the
// durable units inside them (control plane, repair orchestrator, ledger, trace rings), the
// trace codec (SerializeTrace / ParseTrace), the checkpoint frame (SerializeCheckpoint /
// RestoreCheckpoint) and the journal's argv manifest. So there is one wire convention —
// fixed-width little-endian integers, doubles as their IEEE-754 bit patterns (bit-exact round
// trips: the recovered study must be bit-identical, so "close" is data loss), and
// length-prefixed blobs (PutBlob / GetBlob) — and one bounds-checked reader, which fails with
// DATA_LOSS instead of reading past a truncated payload.

#ifndef MERCURIAL_SRC_COMMON_WIRE_H_
#define MERCURIAL_SRC_COMMON_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "src/common/logging.h"
#include "src/common/status.h"

namespace mercurial {

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>& out) : out_(out) {}

  void PutU8(uint8_t v) { out_.push_back(v); }

  // Bulk resize + memcpy instead of per-byte push_back: the journal serializes the full
  // controller state every tick for its dirty check, so integer encoding is the hot loop of
  // durability. memcpy of the in-memory representation is only correct on a little-endian
  // host; the static_assert guards that assumption rather than paying for a runtime byte
  // swap nobody needs.
  void PutU32(uint32_t v) {
    static_assert(std::endian::native == std::endian::little,
                  "wire codec assumes a little-endian host");
    const size_t at = out_.size();
    out_.resize(at + 4);
    std::memcpy(out_.data() + at, &v, 4);
  }

  void PutU64(uint64_t v) {
    static_assert(std::endian::native == std::endian::little,
                  "wire codec assumes a little-endian host");
    const size_t at = out_.size();
    out_.resize(at + 8);
    std::memcpy(out_.data() + at, &v, 8);
  }

  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  // IEEE-754 bit pattern: the round trip is exact, including -0.0 and NaN payloads.
  void PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutBytes(std::span<const uint8_t> bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  // Length-prefixed blob: u32 byte count, then the bytes. ByteReader::GetBlob reads it back.
  void PutBlob(std::span<const uint8_t> bytes) {
    MERCURIAL_CHECK_LE(bytes.size(), std::numeric_limits<uint32_t>::max());
    PutU32(static_cast<uint32_t>(bytes.size()));
    PutBytes(bytes);
  }

  size_t size() const { return out_.size(); }

 private:
  std::vector<uint8_t>& out_;
};

class ByteReader {
 public:
  ByteReader() = default;
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status GetU8(uint8_t* v) {
    if (pos_ + 1 > size_) {
      return DataLossError("wire payload truncated (u8)");
    }
    *v = data_[pos_++];
    return Status::Ok();
  }

  Status GetU32(uint32_t* v) {
    if (pos_ + 4 > size_) {
      return DataLossError("wire payload truncated (u32)");
    }
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return Status::Ok();
  }

  Status GetU64(uint64_t* v) {
    if (pos_ + 8 > size_) {
      return DataLossError("wire payload truncated (u64)");
    }
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return Status::Ok();
  }

  Status GetI64(int64_t* v) {
    uint64_t raw = 0;
    if (Status s = GetU64(&raw); !s.ok()) {
      return s;
    }
    *v = static_cast<int64_t>(raw);
    return Status::Ok();
  }

  Status GetDouble(double* v) {
    uint64_t raw = 0;
    if (Status s = GetU64(&raw); !s.ok()) {
      return s;
    }
    *v = std::bit_cast<double>(raw);
    return Status::Ok();
  }

  Status GetBool(bool* v) {
    uint8_t raw = 0;
    if (Status s = GetU8(&raw); !s.ok()) {
      return s;
    }
    if (raw > 1) {
      return DataLossError("wire bool out of range");
    }
    *v = raw != 0;
    return Status::Ok();
  }

  // Sets `*out` to a reader over the next `n` bytes and advances past them.
  Status GetBytes(size_t n, ByteReader* out) {
    if (n > remaining()) {
      return DataLossError("wire payload truncated (bytes)");
    }
    *out = ByteReader(data_ + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  // Reads a PutBlob: the u32 length is checked against what remains, so a corrupt length is
  // DATA_LOSS, never a read past the payload. `*blob` is bounded to exactly the blob's bytes.
  Status GetBlob(ByteReader* blob) {
    uint32_t len = 0;
    if (Status s = GetU32(&len); !s.ok()) {
      return s;
    }
    return GetBytes(len, blob);
  }

  size_t remaining() const { return size_ - pos_; }

  // Every byte the reader spans, whatever has been read: for a GetBlob/GetBytes reader, the
  // blob itself.
  std::span<const uint8_t> bytes() const { return {data_, size_}; }

  // A restored payload must be consumed exactly: trailing garbage means the frame was not
  // what the serializer wrote, and that is loss, not tolerance.
  Status ExpectEnd() const {
    if (pos_ != size_) {
      return DataLossError("wire payload has trailing bytes");
    }
    return Status::Ok();
  }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_COMMON_WIRE_H_
