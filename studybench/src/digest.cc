#include "studybench/src/digest.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <vector>

namespace studybench {

using mercurial::Histogram;
using mercurial::IncidentTrace;

namespace {

class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  void U64(uint64_t value) { Bytes(&value, sizeof(value)); }
  void F64(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct HashField {
  Fnv1a& h;

  template <class T>
  void operator()(const char*, const T& field) const {
    if constexpr (std::is_same_v<T, double>) {
      h.F64(field);
    } else if constexpr (std::is_same_v<T, bool>) {
      h.U64(field ? 1 : 0);
    } else if constexpr (std::is_integral_v<T>) {
      h.U64(static_cast<uint64_t>(field));
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      h.U64(field.size());
      for (double value : field) {
        h.F64(value);
      }
    } else if constexpr (std::is_same_v<T, Histogram>) {
      h.U64(field.count());
      h.F64(field.sum());
      h.F64(field.min());
      h.F64(field.max());
      h.U64(field.underflow());
      h.U64(field.overflow());
      h.U64(field.buckets().size());
      for (uint64_t bucket : field.buckets()) {
        h.U64(bucket);
      }
    } else {
      static_assert(std::is_same_v<T, IncidentTrace>, "unhandled report field type");
      const std::vector<uint8_t> bytes = mercurial::SerializeTrace(field);
      h.U64(bytes.size());
      h.Bytes(bytes.data(), bytes.size());
    }
  }
};

}  // namespace

uint64_t ReportDigest(const mercurial::StudyReport& report) {
  Fnv1a h;
  VisitReport(report, HashField{h});
  return h.value();
}

std::string MetricsDump(const mercurial::MetricRegistry& metrics) {
  char* buffer = nullptr;
  size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  if (stream == nullptr) {
    std::perror("open_memstream");
    std::abort();
  }
  metrics.Dump(stream);
  std::fclose(stream);
  std::string text(buffer, size);
  std::free(buffer);
  return text;
}

StudyDigest DigestStudy(const mercurial::StudyReport& report,
                        const mercurial::MetricRegistry& metrics) {
  StudyDigest digest;
  digest.report = ReportDigest(report);
  const std::string dump = MetricsDump(metrics);
  Fnv1a metrics_hash;
  metrics_hash.Bytes(dump.data(), dump.size());
  digest.metrics = metrics_hash.value();
  Fnv1a combined;
  combined.U64(digest.report);
  combined.U64(digest.metrics);
  digest.combined = combined.value();
  return digest;
}

std::string HexDigest(uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(value));
  return text;
}

}  // namespace studybench
