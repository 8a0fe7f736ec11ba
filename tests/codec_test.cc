// Tests over every byte codec in the library: the journal, the trace, the checkpoint frame, the
// argv manifest and the durable units inside journal frames (control plane with its nested
// quarantine manager, chaos and quorum state; repair orchestrator; blast-radius ledger and
// trace rings, snapshots and tick ops).
//
// Wire-format pins: the codec tests elsewhere only round-trip, so an encoder and a decoder
// that drift together would still pass them; the pins fail on any change to the bytes.
//
// Seeded mutation: every decoder is fed mutations of a valid encoding — truncations,
// extensions, bit flips, bytes set to boundary values, and length/count fields overwritten
// with a random u32, with and without the codec's CRC recomputed so the mutation also reaches
// the structural checks behind it. Each input must either decode and re-encode to the same
// bytes or return DATA_LOSS (a refused unit payload leaves the unit untouched; tick ops, which
// replay into live state, apply in full or not at all).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/wire.h"
#include "src/core/fleet_study.h"
#include "src/core/study_flags.h"
#include "src/detect/control_plane.h"
#include "src/durability/journal.h"
#include "src/mitigate/blast_radius.h"
#include "src/mitigate/checkpoint.h"
#include "src/mitigate/repair_orchestrator.h"
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
        "register", [this](ByteWriter& w) { w(reg); },
        [this](ByteReader& r) { return r.Restore(std::tie(reg)); });
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
  const auto field = [&] {
    fields.push_back(at());
    return r.U32();
  };
  const auto blob = [&] {
    fields.push_back(at());
    r.Blob();
  };
  while (r.remaining() > 0) {
    const size_t begin = at();
    const uint32_t len = field();
    const uint8_t type = r.U8();
    r.U64();  // tick
    const size_t payload_end = at() + len;
    if (type == static_cast<uint8_t>(JournalFrameType::kSnapshot)) {
      r.U64();  // tick frames before the snapshot
      for (uint32_t n = field(); n > 0; --n) blob();
    } else if (type == static_cast<uint8_t>(JournalFrameType::kTickDelta)) {
      for (int kind = 0; kind < 2; ++kind) {  // full units, then delta units
        for (uint32_t n = field(); n > 0; --n) {
          field();  // unit index
          blob();
        }
      }
    }
    r.Bytes(payload_end - at());
    crc_spans->emplace_back(begin, payload_end);
    r.U32();  // the frame's CRC
  }
  EXPECT_TRUE(r.ok());
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

// --- Durable units ----------------------------------------------------------------------------

// Adds each walked field's size, rounded up to 8-byte slots, recursing into nested stats
// blocks. Every field of the stats structs below is 8 bytes wide, so the sum equals sizeof(T)
// only if the walk visits every field: a field added without a line in its walk fails here
// instead of being lost silently at recovery.
struct SlotBytes {
  size_t bytes = 0;

  template <class... F>
  void operator()(F&... fields) {
    (Add(fields), ...);
  }
  void Check(bool, const char*) {}

  template <class T>
  void Add(T& field) {
    if constexpr (std::is_class_v<T>) {
      Walk(*this, field);
    } else {
      bytes += (sizeof(T) + 7) / 8 * 8;
    }
  }
};

template <class T>
size_t WalkedBytes() {
  T value{};
  SlotBytes slots;
  Walk(slots, value);
  return slots.bytes;
}

TEST(UnitWalkTest, StatsStructsAreFullyWalked) {
  EXPECT_EQ(WalkedBytes<QuarantineStats>(), sizeof(QuarantineStats));
  EXPECT_EQ(WalkedBytes<ControlPlaneStats>(), sizeof(ControlPlaneStats));
  EXPECT_EQ(WalkedBytes<QuorumStats>(), sizeof(QuorumStats));
  EXPECT_EQ(WalkedBytes<ChaosStats>(), sizeof(ChaosStats));
  EXPECT_EQ(WalkedBytes<RepairStats>(), sizeof(RepairStats));
  EXPECT_EQ(WalkedBytes<TraceCounters>(), sizeof(TraceCounters));
}

// A defect-dense study on a 6-hour tick with every control-plane mechanism armed (drains,
// retries, aborted and delayed interrogations, quorum, probation, audit, trace rings), so its
// journal holds unit payloads with pending suspects, probation records and repair tasks.
StudyOptions UnitStudyOptions() {
  StudyOptions options;
  options.seed = 7;
  options.fleet.machine_count = 40;
  options.fleet.mercurial_rate_multiplier = 400.0;
  options.workload.payload_bytes = 64;
  options.work_units_per_core_day = 20;
  options.duration = SimTime::Days(40);
  options.tick = SimTime::Hours(6);
  options.screening.offline_period = SimTime::Days(5);
  options.shards = 4;
  options.audit.enabled = true;
  options.quarantine.recidivism_retire_after = 2;
  options.control_plane.max_retries = 3;
  options.control_plane.retry_backoff = SimTime::Days(1);
  options.control_plane.drain_latency = SimTime::Hours(12);
  options.control_plane.quorum.enabled = true;
  options.control_plane.quorum.witness_error_rate = 0.30;
  options.control_plane.probation.enabled = true;
  options.control_plane.probation.window = SimTime::Days(5);
  options.control_plane.probation.clean_windows_to_reinstate = 2;
  options.control_plane.probation.weak_after_attempts = 1;
  options.control_plane.chaos.delay_report = 0.2;
  options.control_plane.chaos.abort_interrogation = 0.5;
  options.control_plane.chaos.lying_witness = 0.15;
  options.control_plane.chaos.controller_crash_every_ticks = 16;
  options.trace.enabled = true;
  options.durability.enabled = true;
  options.durability.snapshot_every = 8;
  return options;
}

const std::vector<uint8_t>& UnitStudyJournal() {
  static const std::vector<uint8_t> journal = [] {
    FleetStudy study(UnitStudyOptions());
    study.Run();
    return study.durability()->buffer();
  }();
  return journal;
}

// The pinned study above never holds a pending suspect, probation record or repair task at a
// journal frame; this one does, so the pin covers those records' bytes too.
TEST(CodecPinTest, UnitStudyJournal) {
  EXPECT_EQ(Pin(UnitStudyJournal()), "2938508:a42ad2a6586df5ba");
}

// Fresh units configured like the study's: the options that shape the state (the trace rings'
// shard count and capacity) must match, wiring and random streams need not.
QuarantineControlPlane MakeControlPlane() {
  const StudyOptions options = UnitStudyOptions();
  return QuarantineControlPlane(options.control_plane, options.quarantine, Rng(1), Rng(2));
}
RepairOrchestrator MakeRepair() { return RepairOrchestrator(RepairOptions{}, Rng(3)); }
BlastRadiusLedger MakeLedger() { return BlastRadiusLedger(); }
TraceRecorder MakeTrace() {
  const StudyOptions options = UnitStudyOptions();
  return TraceRecorder(options.trace, 1024, static_cast<int>(options.shards));
}

std::vector<uint8_t> Copy(const ByteReader& r) { return {r.bytes().begin(), r.bytes().end()}; }

// Unit payloads cut from the study's journal: the control-plane payload with both pending
// suspects and probation records (the largest such) and the repair payload with the most
// queued tasks, from any snapshot or tick frame; the ledger and trace-ring payloads of the first
// snapshot after the initial one (content, yet small enough to sweep every offset), and the
// first tick ops each logged after it, which apply to them.
struct UnitPayloads {
  std::vector<uint8_t> control_plane, repair, ledger, trace, ledger_ops, trace_ops;
};

const UnitPayloads& StudyUnitPayloads() {
  static const UnitPayloads payloads = [] {
    // FleetStudy's registration order, which is the unit index on the wire.
    enum : uint32_t { kControlPlane, kRepair, kLedger, kTrace };
    const std::vector<uint8_t>& image = UnitStudyJournal();
    UnitPayloads out;
    std::pair<size_t, size_t> best_control_plane{0, 0};  // (score, size)
    size_t best_repair = 0;
    int snapshots = 0;
    bool take_ops = false;
    ByteReader r(image.data(), image.size());
    while (r.remaining() > 0) {
      const uint32_t len = r.U32();
      const uint8_t type = r.U8();
      r.U64();  // tick
      ByteReader payload = r.Bytes(len);
      r.U32();  // CRC
      std::vector<std::pair<uint32_t, std::vector<uint8_t>>> full;
      std::vector<std::pair<uint32_t, std::vector<uint8_t>>> delta;
      if (type == static_cast<uint8_t>(JournalFrameType::kSnapshot)) {
        payload.U64();  // tick frames before the snapshot
        for (uint32_t index = 0, n = payload.U32(); index < n; ++index) {
          full.emplace_back(index, Copy(payload.Blob()));
        }
      } else if (type == static_cast<uint8_t>(JournalFrameType::kTickDelta)) {
        for (auto* entries : {&full, &delta}) {
          for (uint32_t n = payload.U32(); n > 0; --n) {
            const uint32_t index = payload.U32();
            entries->emplace_back(index, Copy(payload.Blob()));
          }
        }
      }
      EXPECT_TRUE(payload.ok());
      for (const auto& [index, blob] : full) {
        ByteReader blob_reader(blob.data(), blob.size());
        if (index == kControlPlane) {
          QuarantineControlPlane plane = MakeControlPlane();
          EXPECT_TRUE(plane.LoadDurableState(blob_reader).ok());
          const std::pair<size_t, size_t> score{
              (plane.pending_count() > 0) + (plane.probation_count() > 0), blob.size()};
          if (score > best_control_plane) {
            best_control_plane = score;
            out.control_plane = blob;
          }
        } else if (index == kRepair) {
          RepairOrchestrator repair = MakeRepair();
          EXPECT_TRUE(repair.LoadDurableState(blob_reader).ok());
          if (repair.queued_tasks() > best_repair) {
            best_repair = repair.queued_tasks();
            out.repair = blob;
          }
        }
      }
      if (type == static_cast<uint8_t>(JournalFrameType::kSnapshot)) {
        take_ops = ++snapshots == 2;
        if (take_ops) {
          out.ledger = full[kLedger].second;
          out.trace = full[kTrace].second;
        }
      }
      for (const auto& [index, blob] : delta) {
        std::vector<uint8_t>& ops = index == kLedger ? out.ledger_ops : out.trace_ops;
        if (take_ops && ops.empty()) ops = blob;
      }
    }
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(best_control_plane.first, 2u) << "no control-plane payload with pending suspects "
                                               "and probation records";
    EXPECT_GT(best_repair, 0u) << "no repair payload with queued tasks";
    return out;
  }();
  return payloads;
}

template <class Unit>
std::vector<uint8_t> Save(const Unit& unit) {
  std::vector<uint8_t> bytes;
  ByteWriter w(bytes);
  unit.SaveDurableState(w);
  return bytes;
}

// Snapshot decoders: each input must decode and re-encode to the same bytes, or be refused
// with DATA_LOSS by a load that leaves the unit exactly as it was (`held`, its last state).
template <class Unit>
Outcome SnapshotCheck(Unit& unit, std::vector<uint8_t>& held, const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes.data(), bytes.size());
  const Status loaded = unit.LoadDurableState(r);
  const std::vector<uint8_t> now = Save(unit);
  if (!loaded.ok()) {
    return now == held ? Refused(loaded) : Outcome::kViolation;
  }
  held = now;
  if (Status s = r.Finish(); !s.ok()) return Refused(s);
  return now == bytes ? Outcome::kOk : Outcome::kViolation;
}

template <class Unit>
void RunSnapshotMutations(Unit (*make)(), const std::vector<uint8_t>& valid, uint64_t seed) {
  Unit unit = make();
  std::vector<uint8_t> held = Save(unit);
  ASSERT_EQ(SnapshotCheck(unit, held, valid), Outcome::kOk);
  MutationTarget target;
  target.valid = valid;
  RunMutations(target, seed, kIterations, [&](const std::vector<uint8_t>& bytes) {
    return SnapshotCheck(unit, held, bytes);
  });
}

// Tick-op decoders replay into live state rather than rebuild it, so there is no decoded value
// to re-encode: each input must be refused with DATA_LOSS leaving the unit at its base state,
// or apply in full and leave a state that itself decodes and re-encodes to the same bytes.
template <class Unit>
Outcome TickOpsCheck(const std::vector<uint8_t>& base, const std::vector<uint8_t>& ops,
                     Unit (*make)()) {
  Unit unit = make();
  ByteReader base_reader(base.data(), base.size());
  if (!unit.LoadDurableState(base_reader).ok()) return Outcome::kViolation;
  ByteReader r(ops.data(), ops.size());
  const Status applied = unit.ApplyTickOps(r);
  const std::vector<uint8_t> now = Save(unit);
  if (!applied.ok()) {
    return now == base ? Refused(applied) : Outcome::kViolation;
  }
  Unit reloaded = make();
  std::vector<uint8_t> held = Save(reloaded);
  if (SnapshotCheck(reloaded, held, now) != Outcome::kOk) return Outcome::kViolation;
  if (Status s = r.Finish(); !s.ok()) return Refused(s);
  return Outcome::kOk;
}

template <class Unit>
void RunTickOpMutations(const std::vector<uint8_t>& base, const std::vector<uint8_t>& ops,
                        Unit (*make)(), uint64_t seed) {
  ASSERT_EQ(TickOpsCheck(base, ops, make), Outcome::kOk);
  MutationTarget target;
  target.valid = ops;
  RunMutations(target, seed, kIterations, [&](const std::vector<uint8_t>& bytes) {
    return TickOpsCheck(base, bytes, make);
  });
}

TEST(CodecMutationTest, ControlPlaneSnapshot) {
  RunSnapshotMutations(MakeControlPlane, StudyUnitPayloads().control_plane, 0x6370);
}

TEST(CodecMutationTest, RepairSnapshot) {
  RunSnapshotMutations(MakeRepair, StudyUnitPayloads().repair, 0x7270);
}

TEST(CodecMutationTest, LedgerSnapshot) {
  RunSnapshotMutations(MakeLedger, StudyUnitPayloads().ledger, 0x6c73);
}

TEST(CodecMutationTest, LedgerTickOps) {
  const UnitPayloads& payloads = StudyUnitPayloads();
  ASSERT_FALSE(payloads.ledger_ops.empty());
  RunTickOpMutations(payloads.ledger, payloads.ledger_ops, MakeLedger, 0x6c74);
}

TEST(CodecMutationTest, TraceRingSnapshot) {
  RunSnapshotMutations(MakeTrace, StudyUnitPayloads().trace, 0x7473);
}

TEST(CodecMutationTest, TraceRingTickOps) {
  const UnitPayloads& payloads = StudyUnitPayloads();
  ASSERT_FALSE(payloads.trace_ops.empty());
  RunTickOpMutations(payloads.trace, payloads.trace_ops, MakeTrace, 0x7474);
}

// 0xFFFFFFFF written over each 4-byte window of a unit payload in turn. Where the window is a
// count, the payload cannot hold that many entries, so the only legal outcome is DATA_LOSS —
// the decoder must refuse the count before it sizes an allocation from it. Elsewhere the usual
// contract holds.
std::vector<uint8_t> WithMaxU32At(std::vector<uint8_t> bytes, size_t at) {
  std::memset(bytes.data() + at, 0xff, 4);
  return bytes;
}

template <class Unit>
void SweepMaxCount(Unit (*make)(), const std::vector<uint8_t>& valid) {
  Unit unit = make();
  int refused = 0;
  for (size_t at = 0; at + 4 <= valid.size(); ++at) {
    std::vector<uint8_t> held = Save(unit);
    const Outcome outcome = SnapshotCheck(unit, held, WithMaxU32At(valid, at));
    ASSERT_NE(outcome, Outcome::kViolation) << "offset " << at << " of " << valid.size();
    refused += outcome == Outcome::kDataLoss;
  }
  EXPECT_GT(refused, 0);
}

TEST(UnitCountBoundTest, MaxCountInAnySnapshotFieldIsRefusedOrRoundTrips) {
  const UnitPayloads& payloads = StudyUnitPayloads();
  SweepMaxCount(MakeControlPlane, payloads.control_plane);
  SweepMaxCount(MakeRepair, payloads.repair);
  SweepMaxCount(MakeLedger, payloads.ledger);
  SweepMaxCount(MakeTrace, payloads.trace);
}

// The control plane's pending count, which follows its RNG state and stats block, set to
// 0xFFFFFFFF: the load must refuse the count before it sizes the pending book from it (an
// unbounded reserve(count) throws std::bad_alloc), and leave the unit as it was.
TEST(UnitCountBoundTest, MaxPendingCountIsDataLoss) {
  const std::vector<uint8_t>& valid = StudyUnitPayloads().control_plane;
  const size_t pending_count_at = 8 * Rng::kStateWords + WireMinBytes<ControlPlaneStats>();
  QuarantineControlPlane plane = MakeControlPlane();
  ByteReader valid_reader(valid.data(), valid.size());
  ASSERT_TRUE(plane.LoadDurableState(valid_reader).ok());
  ASSERT_EQ(ByteReader(valid.data() + pending_count_at, 4).U32(), plane.pending_count());
  const std::vector<uint8_t> bytes = WithMaxU32At(valid, pending_count_at);
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_EQ(plane.LoadDurableState(r).code(), StatusCode::kDataLoss);
  EXPECT_EQ(Save(plane), valid);
}

TEST(UnitCountBoundTest, MaxCountInAnyTickOpFieldIsRefusedOrApplies) {
  const UnitPayloads& payloads = StudyUnitPayloads();
  for (size_t at = 0; at + 4 <= payloads.ledger_ops.size(); ++at) {
    ASSERT_NE(TickOpsCheck(payloads.ledger, WithMaxU32At(payloads.ledger_ops, at), MakeLedger),
              Outcome::kViolation)
        << "ledger ops offset " << at;
  }
  for (size_t at = 0; at + 4 <= payloads.trace_ops.size(); ++at) {
    ASSERT_NE(TickOpsCheck(payloads.trace, WithMaxU32At(payloads.trace_ops, at), MakeTrace),
              Outcome::kViolation)
        << "trace ops offset " << at;
  }
}

}  // namespace
}  // namespace mercurial
