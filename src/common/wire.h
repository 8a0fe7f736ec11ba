// Little-endian byte codec shared by every serializer in the repo.
//
// Every wire format is built on these two classes: the write-ahead journal's frames and the
// durable units inside them (control plane, repair orchestrator, ledger, trace rings), the
// trace codec (SerializeTrace / ParseTrace), the checkpoint frame (SerializeCheckpoint /
// RestoreCheckpoint) and the journal's argv manifest. So there is one wire convention —
// fixed-width little-endian integers, doubles as their IEEE-754 bit patterns (bit-exact round
// trips: the recovered study must be bit-identical, so "close" is data loss), and
// length-prefixed blobs — and one bounds-checked reader, which fails with DATA_LOSS instead of
// reading past a truncated payload.
//
// One walk per record. A durable record states its field order once, as a walk that both
// directions run:
//
//   template <class Wire, RecordOf<Pending> P>
//   friend void Walk(Wire& w, P& p) { w(p.core_global, p.machine, p.score, p.attempts); }
//
// ByteWriter runs it to encode (P is const), ByteReader runs the same walk to decode, so the
// two cannot drift apart. `w.Check(holds, what)` in a walk states an invariant: the reader
// refuses a record that breaks it, the writer ignores it. How each field type is carried:
//   bool                      u8, 0 or 1
//   uint8/32/64, int64        fixed width;  double: its IEEE-754 bits
//   int                       i64; the reader refuses a value an int cannot hold
//   enum                      u8; the reader refuses a value >= EnumCount(E{}), a function
//                             declared next to each enum and found by argument lookup
//   SimTime                   i64 seconds;  Rng: its five state words
//   T[N], std::array<T, N>    N elements, no count
//   std::vector<T>            u32 count, then the elements
//   (unordered_)map, unordered_set
//                             u32 count, then (key, value) / key in ascending key order; the
//                             reader refuses keys that do not strictly ascend
//   std::tuple<T&...>         each element in turn (a unit's DurableFields)
//   a durable unit            its own Save/LoadDurableState payload (a unit nested in another)
//   anything else             a record, through its Walk
//
// ByteReader has one error model. Reads return values. The first failure — truncation, an
// out-of-range bool, int or enum, a count the remaining bytes cannot hold, or a walk's Check —
// is sticky: the reader keeps that message, skips to its end, and every later read returns
// zero. So a decoder reads everything into temporaries, asks ok() once, and commits only then;
// nothing it read after the failure is ever acted on.

#ifndef MERCURIAL_SRC_COMMON_WIRE_H_
#define MERCURIAL_SRC_COMMON_WIRE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"

namespace mercurial {

static_assert(std::endian::native == std::endian::little,
              "wire codec copies integers in host order, so it assumes a little-endian host");

class ByteWriter;
class ByteReader;

// Constrains a record's Walk to the record, const (encoding) or not (decoding).
template <class S, class T>
concept RecordOf = std::same_as<std::remove_const_t<S>, T>;

// A durable unit (SaveDurableState / LoadDurableState) nested inside another unit's payload.
template <class T>
concept DurableUnit = requires(const T& unit, T& target, ByteWriter& w, ByteReader& r) {
  unit.SaveDurableState(w);
  { target.LoadDurableState(r) } -> std::same_as<Status>;
};

// The fewest bytes a walked T can take on the wire: what a default-constructed T encodes to
// (empty sequences, so their counts alone). ByteReader::Count divides by it.
template <class T>
size_t WireMinBytes();

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>& out) : out_(out) {}

  void PutU8(uint8_t v) { out_.push_back(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }

  void PutBytes(std::span<const uint8_t> bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  // Length-prefixed blob: u32 byte count, then the bytes. ByteReader::Blob reads it back.
  void PutBlob(std::span<const uint8_t> bytes) {
    PutCount(bytes.size());
    PutBytes(bytes);
  }

  // Encodes `fields` in order (see the table at the top of this file).
  template <class... F>
  void operator()(const F&... fields) {
    (Put(fields), ...);
  }

  void Check(bool, const char*) {}

 private:
  // Bulk resize + memcpy instead of per-byte push_back: the journal serializes the full
  // controller state every tick for its dirty check, so integer encoding is the hot loop of
  // durability.
  template <class T>
  void PutFixed(T v) {
    const size_t at = out_.size();
    out_.resize(at + sizeof(T));
    std::memcpy(out_.data() + at, &v, sizeof(T));
  }

  void PutCount(size_t n) {
    MERCURIAL_CHECK_LE(n, std::numeric_limits<uint32_t>::max());
    PutU32(static_cast<uint32_t>(n));
  }

  template <class T>
  void Put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      PutU8(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      PutU8(static_cast<uint8_t>(v));
    } else if constexpr (std::is_same_v<T, int>) {
      PutFixed(static_cast<int64_t>(v));
    } else if constexpr (std::is_arithmetic_v<T>) {
      PutFixed(v);
    } else if constexpr (std::is_same_v<T, SimTime>) {
      PutFixed(v.seconds());
    } else if constexpr (std::is_same_v<T, Rng>) {
      uint64_t words[Rng::kStateWords];
      v.SaveState(words);
      for (uint64_t word : words) {
        PutFixed(word);
      }
    } else if constexpr (DurableUnit<T>) {
      v.SaveDurableState(*this);
    } else {
      Walk(*this, v);
    }
  }

  template <class T, size_t N>
  void Put(const T (&v)[N]) {
    for (const T& e : v) Put(e);
  }

  template <class T, size_t N>
  void Put(const std::array<T, N>& v) {
    for (const T& e : v) Put(e);
  }

  template <class T>
  void Put(const std::vector<T>& v) {
    PutCount(v.size());
    for (const T& e : v) Put(e);
  }

  template <class K, class V>
  void Put(const std::map<K, V>& m) {
    PutCount(m.size());
    for (const auto& [key, value] : m) {
      Put(key);
      Put(value);
    }
  }

  // Hash order is a function of insertion history, which a recovered process does not share,
  // so hashed containers go out in key order.
  template <class K, class V>
  void Put(const std::unordered_map<K, V>& m) {
    std::vector<const std::pair<const K, V>*> entries;
    entries.reserve(m.size());
    for (const auto& e : m) entries.push_back(&e);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    PutCount(entries.size());
    for (const auto* e : entries) {
      Put(e->first);
      Put(e->second);
    }
  }

  template <class K>
  void Put(const std::unordered_set<K>& s) {
    std::vector<K> keys(s.begin(), s.end());
    std::sort(keys.begin(), keys.end());
    Put(keys);
  }

  template <class... T>
  void Put(const std::tuple<T...>& fields) {
    std::apply([this](const auto&... f) { (Put(f), ...); }, fields);
  }

  std::vector<uint8_t>& out_;
};

template <class T>
size_t WireMinBytes() {
  static const size_t bytes = [] {
    std::vector<uint8_t> out;
    ByteWriter w(out);
    w(T{});
    return std::max<size_t>(out.size(), 1);
  }();
  return bytes;
}

class ByteReader {
 public:
  ByteReader() = default;
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8() { return Fixed<uint8_t>(); }
  uint32_t U32() { return Fixed<uint32_t>(); }
  uint64_t U64() { return Fixed<uint64_t>(); }

  // A reader over the next `n` bytes, which this one skips. When fewer remain (or this reader
  // already failed) both fail, so a decoder handed the sub-reader stops at once.
  ByteReader Bytes(size_t n) {
    if (n > remaining()) {
      Fail("wire payload truncated");
    }
    ByteReader sub;
    if (!ok()) {
      sub.error_ = error_;
      return sub;
    }
    sub = ByteReader(data_ + pos_, n);
    pos_ += n;
    return sub;
  }

  // Reads a PutBlob; the returned reader spans exactly the blob.
  ByteReader Blob() { return Bytes(U32()); }

  // The one bounded count read: a count of elements that each take at least
  // `min_element_bytes` is refused unless the remaining bytes can hold them all, so no count
  // from the wire sizes an allocation before it has been checked against the payload.
  template <class W = uint32_t>
  W Count(size_t min_element_bytes) {
    const W n = Fixed<W>();
    if (n > remaining() / min_element_bytes) {
      Fail("wire count exceeds the payload");
      return 0;
    }
    return n;
  }

  // Decodes into `fields` in order (see the table at the top of this file).
  template <class... F>
  void operator()(F&... fields) {
    (Get(fields), ...);
  }

  // Fails the reader with `what` (a string literal) unless `holds`.
  void Check(bool holds, const char* what) {
    if (!holds) {
      Fail(what);
    }
  }

  // Decodes a unit's DurableFields into a staged copy and assigns it to the live fields only
  // if all of it decoded: a refused payload leaves the unit as it was. The copy starts from
  // the live values, so what a nested unit keeps off the wire (its options) carries over.
  template <class... T>
  Status Restore(std::tuple<T&...> live) {
    std::tuple<T...> staged(live);
    std::apply(*this, staged);
    if (!ok()) {
      return status();
    }
    live = std::move(staged);
    return Status::Ok();
  }

  bool ok() const { return error_ == nullptr; }
  Status status() const { return ok() ? Status::Ok() : DataLossError(error_); }

  // A payload must be consumed exactly: trailing garbage means the frame was not what the
  // serializer wrote, and that is loss, not tolerance.
  Status Finish() const {
    if (ok() && pos_ != size_) {
      return DataLossError("wire payload has trailing bytes");
    }
    return status();
  }

  size_t remaining() const { return size_ - pos_; }

  // Every byte the reader spans, whatever has been read: for a Blob/Bytes reader, the blob.
  std::span<const uint8_t> bytes() const { return {data_, size_}; }

 private:
  // Records the first failure and exhausts the reader.
  void Fail(const char* what) {
    if (error_ == nullptr) {
      error_ = what;
    }
    pos_ = size_;
  }

  template <class T>
  T Fixed() {
    if (sizeof(T) > remaining()) {
      Fail("wire payload truncated");
      return T{};
    }
    T v{};
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <class T>
  void Get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      const uint8_t raw = Fixed<uint8_t>();
      Check(raw <= 1, "wire bool out of range");
      v = raw == 1;
    } else if constexpr (std::is_enum_v<T>) {
      const uint8_t raw = Fixed<uint8_t>();
      Check(raw < EnumCount(T{}), "wire enum out of range");
      v = static_cast<T>(raw);
    } else if constexpr (std::is_same_v<T, int>) {
      const int64_t raw = Fixed<int64_t>();
      Check(raw >= std::numeric_limits<int>::min() && raw <= std::numeric_limits<int>::max(),
            "wire int out of range");
      v = static_cast<int>(raw);
    } else if constexpr (std::is_arithmetic_v<T>) {
      v = Fixed<T>();
    } else if constexpr (std::is_same_v<T, SimTime>) {
      v = SimTime::Seconds(Fixed<int64_t>());
    } else if constexpr (std::is_same_v<T, Rng>) {
      uint64_t words[Rng::kStateWords];
      for (uint64_t& word : words) {
        word = Fixed<uint64_t>();
      }
      v.RestoreState(words);
    } else if constexpr (DurableUnit<T>) {
      if (ok() && !v.LoadDurableState(*this).ok()) {
        Fail("nested durable unit refused its payload");
      }
    } else {
      Walk(*this, v);
    }
  }

  template <class T, size_t N>
  void Get(T (&v)[N]) {
    for (T& e : v) Get(e);
  }

  template <class T, size_t N>
  void Get(std::array<T, N>& v) {
    for (T& e : v) Get(e);
  }

  template <class T>
  void Get(std::vector<T>& v) {
    v.clear();
    v.resize(Count(WireMinBytes<T>()));
    for (T& e : v) Get(e);
  }

  template <class K, class V>
  void Get(std::map<K, V>& m) {
    GetSorted(m);
  }

  template <class K, class V>
  void Get(std::unordered_map<K, V>& m) {
    GetSorted(m);
  }

  template <class K>
  void Get(std::unordered_set<K>& s) {
    GetSorted(s);
  }

  // Keyed containers: the count, then entries whose keys must strictly ascend (what the
  // writer emits), so every accepted payload re-encodes to the same bytes.
  template <class Keyed>
  void GetSorted(Keyed& c) {
    using K = typename Keyed::key_type;
    constexpr bool kHasValue = requires { typename Keyed::mapped_type; };
    size_t entry_bytes = WireMinBytes<K>();
    if constexpr (kHasValue) {
      entry_bytes += WireMinBytes<typename Keyed::mapped_type>();
    }
    c.clear();
    const uint32_t n = Count(entry_bytes);
    if constexpr (requires { c.reserve(n); }) {
      c.reserve(n);
    }
    K previous{};
    for (uint32_t i = 0; i < n && ok(); ++i) {
      K key{};
      Get(key);
      Check(i == 0 || previous < key, "wire keys out of order");
      previous = key;
      if constexpr (kHasValue) {
        typename Keyed::mapped_type value{};
        Get(value);
        c.emplace(key, std::move(value));
      } else {
        c.insert(key);
      }
    }
  }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  const char* error_ = nullptr;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_COMMON_WIRE_H_
