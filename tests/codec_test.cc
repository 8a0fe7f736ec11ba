// Tests over every byte codec in the library: the journal, the trace, the checkpoint frame and
// the argv manifest.
//
// Wire-format pins: the codec tests elsewhere only round-trip, so an encoder and a decoder
// that drift together would still pass them; the pins fail on any change to the bytes.
//
// Seeded mutation: every decoder is fed mutations of a valid encoding — truncations,
// extensions, bit flips, bytes set to boundary values, and length/count fields overwritten
// with a random u32, with and without the codec's CRC recomputed so the mutation also reaches
// the structural checks behind it. Each input must either decode and re-encode to the same
// bytes or return DATA_LOSS.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/wire.h"
#include "src/core/fleet_study.h"
#include "src/core/study_flags.h"
#include "src/durability/journal.h"
#include "src/mitigate/checkpoint.h"
#include "src/substrate/checksum.h"
#include "src/telemetry/trace.h"

namespace mercurial {
namespace {

// "<size>:<fnv1a64 hex>" — the size makes a length drift readable at a glance.
std::string Pin(const std::vector<uint8_t>& bytes) {
  char text[48];
  std::snprintf(text, sizeof(text), "%zu:%016llx", bytes.size(),
                static_cast<unsigned long long>(Fnv1a64(bytes)));
  return text;
}

// A small study that writes every journal frame type and unit kind: audit (ledger delta
// unit), trace (trace-ring delta unit), quorum and probation (control-plane state), periodic
// snapshots and a controller crash-and-recover every five ticks.
StudyOptions PinnedStudyOptions() {
  StudyOptions options;
  options.seed = 1405;
  options.fleet.machine_count = 40;
  options.fleet.mercurial_rate_multiplier = 400.0;
  options.workload.payload_bytes = 64;
  options.work_units_per_core_day = 4;
  options.duration = SimTime::Days(40);
  options.screening.offline_period = SimTime::Days(10);
  options.shards = 4;
  options.control_plane.quorum.enabled = true;
  options.control_plane.probation.enabled = true;
  options.audit.enabled = true;
  options.trace.enabled = true;
  options.durability.enabled = true;
  options.durability.snapshot_every = 8;
  options.control_plane.chaos.controller_crash_every_ticks = 5;
  return options;
}

struct PinnedStudy {
  StudyReport report;
  std::vector<uint8_t> journal;
};

const PinnedStudy& RunPinnedStudy() {
  static const PinnedStudy pinned = [] {
    FleetStudy study(PinnedStudyOptions());
    PinnedStudy out{study.Run(), {}};
    out.journal = study.durability()->buffer();
    return out;
  }();
  return pinned;
}

TEST(CodecPinTest, JournalImage) {
  const PinnedStudy& pinned = RunPinnedStudy();
  ASSERT_GT(pinned.report.durability.controller_crashes, 0u);
  ASSERT_GT(pinned.report.durability.snapshots_written, 1u);
  EXPECT_EQ(Pin(pinned.journal), "260729:f2a509d9a255b196");
}

TEST(CodecPinTest, SerializedTrace) {
  const PinnedStudy& pinned = RunPinnedStudy();
  ASSERT_GT(pinned.report.trace.events.size(), 0u);
  EXPECT_EQ(Pin(SerializeTrace(pinned.report.trace)), "7434:f700a2480a276efa");
}

TEST(CodecPinTest, Checkpoint) {
  const ProvenanceTag tag{0x0102030405060708ull, 0x1122334455667788ull};
  EXPECT_EQ(Pin(SerializeCheckpoint(0xfedcba9876543210ull, tag)), "32:0b2c1e67452f075d");
}

TEST(CodecPinTest, ArgvManifest) {
  const char* const argv[] = {"mercurialctl", "study", "--machines=60",
                              "--journal=smoke.journal", "--chaos-controller-crash-every=7", ""};
  EXPECT_EQ(Pin(EncodeArgvManifest(6, argv)), "113:d8ff49b4e34ef8ae");
}

// --- Seeded mutation ---------------------------------------------------------------------------

// A valid encoding and what the mutator knows about its layout.
struct MutationTarget {
  std::vector<uint8_t> valid;
  std::vector<size_t> count_fields;  // offsets of u32 length/count fields
  // Recomputes the codec's CRC(s) in place; empty for a codec without one.
  std::function<void(std::vector<uint8_t>&)> reseal;
};

std::vector<uint8_t> Mutate(const MutationTarget& target, Rng& rng) {
  std::vector<uint8_t> bytes = target.valid;
  const auto flip_bits = [&] {
    for (uint64_t n = rng.UniformInt(1, 4); n > 0 && !bytes.empty(); --n) {
      const size_t at = rng.UniformInt(0, bytes.size() - 1);
      bytes[at] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    }
  };
  switch (rng.UniformInt(0, 5)) {
    case 0:  // truncate
      bytes.resize(rng.UniformInt(0, bytes.size() - 1));
      break;
    case 1:  // extend
      for (uint64_t n = rng.UniformInt(1, 16); n > 0; --n) {
        bytes.push_back(static_cast<uint8_t>(rng.NextU32()));
      }
      break;
    case 2:
      flip_bits();
      break;
    case 3:
      flip_bits();
      if (target.reseal) target.reseal(bytes);
      break;
    case 4: {  // a length or count field, resealed so the CRC does not hide it
      const std::vector<size_t>& fields = target.count_fields;
      const size_t at = fields.empty() ? rng.UniformInt(0, bytes.size() - 4)
                                       : fields[rng.UniformInt(0, fields.size() - 1)];
      uint32_t value = 0;
      std::memcpy(&value, bytes.data() + at, 4);
      switch (rng.UniformInt(0, 2)) {
        case 0: value = rng.NextU32(); break;
        case 1: value += static_cast<uint32_t>(rng.UniformInt(1, 8)); break;
        case 2: value -= static_cast<uint32_t>(rng.UniformInt(1, 8)); break;
      }
      std::memcpy(bytes.data() + at, &value, 4);
      if (target.reseal) target.reseal(bytes);
      break;
    }
    case 5: {  // bytes set to boundary values (a NUL in a string, a frame type), resealed
      constexpr uint8_t kBoundary[] = {0x00, 0x01, 0x02, 0x7f, 0x80, 0xff};
      for (uint64_t n = rng.UniformInt(1, 4); n > 0 && !bytes.empty(); --n) {
        bytes[rng.UniformInt(0, bytes.size() - 1)] = kBoundary[rng.UniformInt(0, 5)];
      }
      if (target.reseal) target.reseal(bytes);
      break;
    }
  }
  return bytes;
}

// Feeds `iterations` mutations of `target` to `check`, which returns kOk when the input decoded
// and re-encoded to the same bytes, kDataLoss when it was refused, and kViolation otherwise.
// Both outcomes must occur, or the mutations never reached one of the two branches.
enum class Outcome { kOk, kDataLoss, kViolation };

void RunMutations(const MutationTarget& target, uint64_t seed, int iterations,
                  const std::function<Outcome(const std::vector<uint8_t>&)>& check) {
  Rng rng(seed);
  int accepted = 0;
  int refused = 0;
  int violations = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::vector<uint8_t> bytes = Mutate(target, rng);
    switch (check(bytes)) {
      case Outcome::kOk: ++accepted; break;
      case Outcome::kDataLoss: ++refused; break;
      case Outcome::kViolation:
        ADD_FAILURE() << "mutation " << i << " (" << bytes.size()
                      << " bytes) neither round-tripped nor returned DATA_LOSS";
        if (++violations == 5) return;
        break;
    }
  }
  EXPECT_GT(accepted, 0) << "no mutation decoded";
  EXPECT_GT(refused, 0) << "no mutation was refused";
}

Outcome Refused(const Status& status) {
  return status.code() == StatusCode::kDataLoss ? Outcome::kDataLoss : Outcome::kViolation;
}

void ResealTrailingCrc(std::vector<uint8_t>& bytes) {
  if (bytes.size() >= 4) {
    const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
  }
}

constexpr int kIterations = 3000;

TEST(CodecMutationTest, ParseTrace) {
  MutationTarget target;
  target.valid = SerializeTrace(RunPinnedStudy().report.trace);
  target.count_fields = {8, 12, 16};  // shards, event_count (both halves)
  target.reseal = ResealTrailingCrc;
  RunMutations(target, 0x7472, kIterations, [](const std::vector<uint8_t>& bytes) {
    const StatusOr<IncidentTrace> trace = ParseTrace(bytes);
    if (!trace.ok()) return Refused(trace.status());
    return SerializeTrace(*trace) == bytes ? Outcome::kOk : Outcome::kViolation;
  });
}

TEST(CodecMutationTest, RestoreCheckpoint) {
  MutationTarget target;
  target.valid = SerializeCheckpoint(0xfedcba9876543210ull, {17, 3});
  target.reseal = ResealTrailingCrc;
  RunMutations(target, 0x636b, kIterations, [](const std::vector<uint8_t>& bytes) {
    ProvenanceTag tag;
    const StatusOr<uint64_t> state = RestoreCheckpoint(bytes, &tag);
    if (!state.ok()) return Refused(state.status());
    return SerializeCheckpoint(*state, tag) == bytes ? Outcome::kOk : Outcome::kViolation;
  });
}

TEST(CodecMutationTest, ArgvManifest) {
  const char* const argv[] = {"mercurialctl", "study", "--machines=60", "", "--journal=j"};
  MutationTarget target;
  target.valid = EncodeArgvManifest(5, argv);
  for (size_t at = 0; at < target.valid.size();) {  // the count, then each entry's length
    target.count_fields.push_back(at);
    at += 4 + (at == 0 ? 0 : std::strlen(argv[target.count_fields.size() - 2]));
  }
  RunMutations(target, 0x6172, kIterations, [](const std::vector<uint8_t>& bytes) {
    std::vector<std::string> args;
    if (Status s = DecodeArgvManifest(bytes, &args); !s.ok()) return Refused(s);
    std::vector<const char*> raw;
    for (const std::string& arg : args) raw.push_back(arg.c_str());
    return EncodeArgvManifest(static_cast<int>(raw.size()), raw.data()) == bytes
               ? Outcome::kOk
               : Outcome::kViolation;
  });
}

// The journal's durable units for the mutation test: a full-state register and the real trace
// rings as a delta unit, so recovery runs a production payload decoder too.
struct JournalUnits {
  uint64_t reg = 0;
  TraceRecorder trace{TraceOptions{.enabled = true, .ring_capacity = 3}, 8, 2};

  void Register(DurabilityManager& manager) {
    manager.RegisterUnit(
        "register", [this](ByteWriter& w) { w.PutU64(reg); },
        [this](ByteReader& r) { return r.GetU64(&reg); });
    manager.RegisterDeltaUnit(
        "trace", [this](ByteWriter& w) { trace.SaveDurableState(w); },
        [this](ByteReader& r) { return trace.LoadDurableState(r); },
        [this]() { return trace.HasTickOps(); },
        [this](ByteWriter& w) { trace.DrainTickOps(w); },
        [this](ByteReader& r) { return trace.ApplyTickOps(r); });
  }
};

// u32 fields of a journal image written with JournalUnits: every frame's payload length, and
// in snapshot and tick payloads the unit count and blob lengths, the unit counts and indexes.
std::vector<size_t> JournalCountFields(const std::vector<uint8_t>& image,
                                       std::vector<std::pair<size_t, size_t>>* crc_spans) {
  std::vector<size_t> fields;
  ByteReader r(image.data(), image.size());
  const auto at = [&] { return image.size() - r.remaining(); };
  const auto field = [&](uint32_t* value) {
    fields.push_back(at());
    EXPECT_TRUE(r.GetU32(value).ok());
  };
  const auto blob = [&] {
    ByteReader skipped;
    fields.push_back(at());
    EXPECT_TRUE(r.GetBlob(&skipped).ok());
  };
  while (r.remaining() > 0) {
    const size_t begin = at();
    uint32_t len = 0;
    uint8_t type = 0;
    uint64_t tick = 0;
    uint32_t count = 0;
    uint32_t index = 0;
    field(&len);
    EXPECT_TRUE(r.GetU8(&type).ok() && r.GetU64(&tick).ok());
    const size_t payload_end = at() + len;
    if (type == static_cast<uint8_t>(JournalFrameType::kSnapshot)) {
      EXPECT_TRUE(r.GetU64(&tick).ok());  // tick frames before the snapshot
      field(&count);
      for (uint32_t i = 0; i < count; ++i) blob();
    } else if (type == static_cast<uint8_t>(JournalFrameType::kTickDelta)) {
      for (int kind = 0; kind < 2; ++kind) {  // full units, then delta units
        field(&count);
        for (uint32_t i = 0; i < count; ++i) {
          field(&index);
          blob();
        }
      }
    }
    ByteReader rest;
    EXPECT_TRUE(r.GetBytes(payload_end - at(), &rest).ok());
    crc_spans->emplace_back(begin, payload_end);
    EXPECT_TRUE(r.GetU32(&count).ok());  // the frame's CRC
  }
  return fields;
}

TEST(CodecMutationTest, JournalInspectAndRecover) {
  JournalUnits writer_units;
  DurabilityManager::Options options;
  options.snapshot_every = 4;
  DurabilityManager writer(options);
  writer_units.Register(writer);
  writer_units.trace.EnableMutationLog(true);
  ASSERT_TRUE(writer.Start(0, {'m', 'f'}).ok());
  for (uint64_t tick = 1; tick <= 10; ++tick) {
    if (tick % 3 != 0) writer_units.reg = tick * 7;  // some ticks leave the register clean
    writer_units.trace.SetTickContext(SimTime::Hours(static_cast<double>(tick)), tick);
    for (uint64_t core = tick % 2; core < 8; core += 3) {
      writer_units.trace.Emit(core, TraceEventKind::kSignalEmitted, TraceCause::kScreenFail,
                              tick);
    }
    writer.EndTick(tick);
  }

  std::vector<std::pair<size_t, size_t>> crc_spans;
  MutationTarget target;
  target.valid = writer.buffer();
  target.count_fields = JournalCountFields(target.valid, &crc_spans);
  target.reseal = [&crc_spans](std::vector<uint8_t>& bytes) {
    for (const auto& [begin, end] : crc_spans) {
      if (end + 4 <= bytes.size()) {
        const uint32_t crc = Crc32(bytes.data() + begin, end - begin);
        std::memcpy(bytes.data() + end, &crc, 4);
      }
    }
  };
  // A journal is never re-encoded whole: the contract is that Inspect and a fresh manager's
  // Recover() agree on the image, and that recovery keeps exactly a byte prefix of it.
  RunMutations(target, 0x6a6c, kIterations, [](const std::vector<uint8_t>& bytes) {
    const StatusOr<JournalImageInfo> info = InspectJournalImage(bytes);
    JournalUnits units;
    DurabilityManager manager(DurabilityManager::Options{});
    units.Register(manager);
    manager.ReplaceBuffer(bytes);
    const StatusOr<DurabilityManager::RecoveryResult> recovered = manager.Recover();
    if (!info.ok()) {
      return recovered.ok() ? Outcome::kViolation : Refused(info.status());
    }
    if (!recovered.ok()) {
      return Refused(recovered.status());  // a payload only Recover() decodes
    }
    const bool agree =
        info->durable_prefix_bytes <= bytes.size() &&
        manager.buffer() == std::vector<uint8_t>(bytes.begin(),
                                                 bytes.begin() + info->durable_prefix_bytes) &&
        recovered->durable_tick == info->durable_tick &&
        recovered->snapshot_tick == info->snapshot_tick &&
        manager.recovered_manifest() == info->manifest;
    return agree ? Outcome::kOk : Outcome::kViolation;
  });
}

}  // namespace
}  // namespace mercurial
