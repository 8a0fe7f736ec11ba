// DurabilityManager unit tests: the write-ahead journal + snapshot + recovery engine behind
// the crash-tolerant control plane (src/durability/journal.h), exercised with toy units whose
// durable state is cheap to model exactly, plus study-level regressions for the recovery
// accounting the control plane must reconstruct (pending-at-end books).
//
// The frame-prefix contract under test: recovery trusts exactly the longest valid frame
// prefix. A torn tail (clipped frame) or a corrupt frame (CRC mismatch) ends the prefix and
// is classified and counted; the state that comes back is always the state at some durable
// tick, never a blend, never garbage.

#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/wire.h"
#include "src/core/fleet_study.h"
#include "src/durability/journal.h"
#include "src/substrate/checksum.h"

namespace mercurial {
namespace {

// Full-state toy unit: a single register. Serialize-and-compare dirtiness means a tick where
// the value does not change writes nothing for this unit.
struct ToyRegister {
  uint64_t value = 0;

  void Save(ByteWriter& w) const { w(value); }
  Status Load(ByteReader& r) { return r.Restore(std::tie(value)); }
};

// Delta toy unit: an append-only log with a per-tick op journal, the same shape as the
// blast-radius ledger and the trace rings.
struct ToyLog {
  std::vector<uint64_t> entries;
  std::vector<uint64_t> tick_ops;

  void Append(uint64_t v) {
    entries.push_back(v);
    tick_ops.push_back(v);
  }
  bool HasTickOps() const { return !tick_ops.empty(); }
  void DrainTickOps(ByteWriter& w) {
    w(tick_ops);
    tick_ops.clear();
  }
  Status ApplyTickOps(ByteReader& r) {
    std::vector<uint64_t> ops;
    r(ops);
    if (!r.ok()) {
      return r.status();
    }
    entries.insert(entries.end(), ops.begin(), ops.end());
    return Status::Ok();
  }
  void Save(ByteWriter& w) const { w(entries); }
  Status Load(ByteReader& r) {
    if (Status s = r.Restore(std::tie(entries)); !s.ok()) {
      return s;
    }
    tick_ops.clear();
    return Status::Ok();
  }
};

void RegisterToyUnits(DurabilityManager& manager, ToyRegister& reg, ToyLog& log) {
  manager.RegisterUnit(
      "register", [&reg](ByteWriter& w) { reg.Save(w); },
      [&reg](ByteReader& r) { return reg.Load(r); });
  manager.RegisterDeltaUnit(
      "log", [&log](ByteWriter& w) { log.Save(w); },
      [&log](ByteReader& r) { return log.Load(r); }, [&log]() { return log.HasTickOps(); },
      [&log](ByteWriter& w) { log.DrainTickOps(w); },
      [&log](ByteReader& r) { return log.ApplyTickOps(r); });
}

// The modeled durable state after each tick, for exact-rollback assertions.
struct ToyStateAtTick {
  uint64_t reg = 0;
  std::vector<uint64_t> log;
  size_t journal_size = 0;  // journal byte size right after this tick's EndTick
};

// Runs `ticks` deterministic mutations through a journal, recording the expected durable
// state after each tick. Tick i (1-based) sets the register to 100 + i and appends i to the
// log (two entries on even ticks, so delta payload sizes vary).
std::vector<ToyStateAtTick> DriveTicks(DurabilityManager& manager, ToyRegister& reg,
                                       ToyLog& log, uint64_t ticks) {
  std::vector<ToyStateAtTick> after;
  for (uint64_t i = 1; i <= ticks; ++i) {
    reg.value = 100 + i;
    log.Append(i);
    if (i % 2 == 0) {
      log.Append(1000 + i);
    }
    manager.EndTick(i);
    after.push_back({reg.value, log.entries, manager.size()});
  }
  return after;
}

TEST(DurabilityTest, StartWritesHeaderManifestAndInitialSnapshot) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager manager(DurabilityManager::Options{});
  RegisterToyUnits(manager, reg, log);
  const std::vector<uint8_t> manifest = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(manager.Start(0, manifest).ok());

  EXPECT_TRUE(manager.started());
  EXPECT_EQ(manager.stats().frames_written, 3u);  // header + manifest + initial snapshot
  EXPECT_EQ(manager.stats().snapshots_written, 1u);
  EXPECT_EQ(manager.stats().tick_frames_written, 0u);
  EXPECT_EQ(manager.stats().bytes_written, manager.size());
  EXPECT_GT(manager.size(), manifest.size());
  // The initial snapshot closes the immutable prefix: the mutable (chaos-exposed) tail is
  // empty until the first tick frame lands.
  EXPECT_EQ(manager.mutable_tail_start(), manager.size());
}

TEST(DurabilityTest, ExactRecoveryRestoresTheLatestDurableTick) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager manager(DurabilityManager::Options{});
  RegisterToyUnits(manager, reg, log);
  ASSERT_TRUE(manager.Start(0, {}).ok());
  const std::vector<ToyStateAtTick> after = DriveTicks(manager, reg, log, 5);

  // Mutations after the last EndTick never reached the journal; a crash forgets them.
  reg.value = 999999;
  log.Append(999999);

  StatusOr<DurabilityManager::RecoveryResult> recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->exact);
  EXPECT_EQ(recovered->durable_tick, 5u);
  EXPECT_EQ(recovered->frames_replayed, 5u);
  EXPECT_EQ(recovered->frames_truncated, 0u);
  EXPECT_EQ(reg.value, after[4].reg);
  EXPECT_EQ(log.entries, after[4].log);
  EXPECT_TRUE(log.tick_ops.empty()) << "recovery must not leave replayed ops pending";
  EXPECT_EQ(manager.stats().recoveries, 1u);
  EXPECT_EQ(manager.stats().exact_recoveries, 1u);
  EXPECT_EQ(manager.stats().torn_tail_truncations, 0u);
  EXPECT_EQ(manager.stats().corrupt_frames_rejected, 0u);

  // The journal keeps working after recovery: the next tick appends past the durable prefix.
  reg.value = 777;
  manager.EndTick(6);
  StatusOr<DurabilityManager::RecoveryResult> again = manager.Recover();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->exact);
  EXPECT_EQ(again->durable_tick, 6u);
  EXPECT_EQ(reg.value, 777u);
}

TEST(DurabilityTest, SnapshotCadenceBoundsTheReplayTail) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager::Options options;
  options.snapshot_every = 4;
  DurabilityManager manager(options);
  RegisterToyUnits(manager, reg, log);
  ASSERT_TRUE(manager.Start(0, {}).ok());
  DriveTicks(manager, reg, log, 16);

  // Ticks 4, 8, 12, 16 each replaced their due tick frame with a full snapshot.
  EXPECT_EQ(manager.stats().snapshots_written, 5u);  // initial + 4 due
  EXPECT_EQ(manager.stats().tick_frames_written, 16u);
  EXPECT_EQ(manager.tick_frames_since_snapshot(), 0u);
  EXPECT_EQ(manager.mutable_tail_start(), manager.size());

  // Cadence keeps the replay bounded: recovery after a full cadence replays nothing.
  StatusOr<DurabilityManager::RecoveryResult> recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->exact);
  EXPECT_EQ(recovered->frames_replayed, 0u);
  EXPECT_EQ(recovered->snapshot_tick, 16u);
}

TEST(DurabilityTest, TornTailRecoversThePrefixAndCountsTheLoss) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager manager(DurabilityManager::Options{});  // snapshot_every=64: no mid snapshots
  RegisterToyUnits(manager, reg, log);
  ASSERT_TRUE(manager.Start(0, {}).ok());
  const std::vector<ToyStateAtTick> after = DriveTicks(manager, reg, log, 5);

  // Tear into the middle of tick 4's frame: ticks 4 and 5 fall past the durable horizon.
  const size_t tear = manager.size() - (after[2].journal_size + 5);
  manager.TearTail(tear);

  StatusOr<DurabilityManager::RecoveryResult> recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->exact);
  EXPECT_EQ(recovered->durable_tick, 3u);
  EXPECT_EQ(recovered->frames_replayed, 3u);
  EXPECT_EQ(recovered->frames_truncated, 2u);
  EXPECT_EQ(manager.stats().torn_tail_truncations, 1u);
  EXPECT_EQ(manager.stats().prefix_recoveries, 1u);
  EXPECT_EQ(reg.value, after[2].reg);
  EXPECT_EQ(log.entries, after[2].log);
  // The clipped frame is untrusted: the journal truncates to the durable prefix exactly.
  EXPECT_EQ(manager.size(), after[2].journal_size);

  // The write cursor continues from the durable prefix; conservation stays closed.
  reg.value = 4242;
  manager.EndTick(6);
  StatusOr<DurabilityManager::RecoveryResult> again = manager.Recover();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->exact);
  EXPECT_EQ(again->frames_replayed, 4u);  // ticks 1..3 + tick 6
  EXPECT_EQ(reg.value, 4242u);
}

TEST(DurabilityTest, FlippedBitIsRejectedNeverTrusted) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager manager(DurabilityManager::Options{});
  RegisterToyUnits(manager, reg, log);
  ASSERT_TRUE(manager.Start(0, {}).ok());
  const std::vector<ToyStateAtTick> after = DriveTicks(manager, reg, log, 5);

  // Flip one bit inside tick 4's frame (the tick stamp, byte 6 of the frame): the stored CRC
  // no longer matches, so the scan must reject the frame and everything after it.
  manager.FlipBit(after[2].journal_size + 6, 3);

  StatusOr<DurabilityManager::RecoveryResult> recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->exact);
  EXPECT_EQ(recovered->durable_tick, 3u);
  EXPECT_EQ(recovered->frames_replayed, 3u);
  EXPECT_EQ(recovered->frames_truncated, 2u);
  EXPECT_EQ(manager.stats().corrupt_frames_rejected, 1u);
  EXPECT_EQ(manager.stats().torn_tail_truncations, 0u);
  EXPECT_EQ(reg.value, after[2].reg);
  EXPECT_EQ(log.entries, after[2].log);
  EXPECT_EQ(manager.size(), after[2].journal_size);
}

TEST(DurabilityTest, FreshManagerRecoversAJournalImageAndItsManifest) {
  // The CLI `recover` path: the journal bytes are all that survives; a fresh manager with the
  // same unit registration order restores state and the stored manifest from them.
  std::vector<uint8_t> image;
  std::vector<ToyStateAtTick> after;
  const std::vector<uint8_t> manifest = {'a', 'r', 'g', 'v'};
  {
    ToyRegister reg;
    ToyLog log;
    DurabilityManager writer(DurabilityManager::Options{});
    RegisterToyUnits(writer, reg, log);
    ASSERT_TRUE(writer.Start(0, manifest).ok());
    after = DriveTicks(writer, reg, log, 7);
    image = writer.buffer();
  }

  ToyRegister reg;
  ToyLog log;
  DurabilityManager reader(DurabilityManager::Options{});
  RegisterToyUnits(reader, reg, log);
  reader.ReplaceBuffer(image);
  StatusOr<DurabilityManager::RecoveryResult> recovered = reader.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->exact);
  EXPECT_EQ(recovered->durable_tick, 7u);
  EXPECT_EQ(reg.value, after[6].reg);
  EXPECT_EQ(log.entries, after[6].log);
  EXPECT_EQ(reader.recovered_manifest(), manifest);
  EXPECT_TRUE(reader.started()) << "a recovered manager can keep journaling";
}

// The journal a toy writer leaves after `ticks` ticks.
std::vector<uint8_t> ToyJournalImage(uint64_t ticks, const std::vector<uint8_t>& manifest) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager writer(DurabilityManager::Options{});
  RegisterToyUnits(writer, reg, log);
  EXPECT_TRUE(writer.Start(0, manifest).ok());
  DriveTicks(writer, reg, log, ticks);
  return writer.buffer();
}

// Recover() of `image` on a fresh manager, as the CLI path would run it.
Status RecoverToyImage(std::vector<uint8_t> image) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager reader(DurabilityManager::Options{});
  RegisterToyUnits(reader, reg, log);
  reader.ReplaceBuffer(std::move(image));
  return reader.Recover().status();
}

TEST(DurabilityTest, InspectAndRecoverRefuseANonTickFrameAfterTheLatestSnapshot) {
  // A second manifest frame with a valid CRC after the latest snapshot: the writer never
  // produces one, so the image is not a journal. Inspect (the CLI's first look) must refuse it
  // exactly as Recover() does, not report a durable prefix that recovery would then reject.
  std::vector<uint8_t> image = ToyJournalImage(3, {'a', 'r', 'g', 'v'});
  const size_t frame_start = image.size();
  ByteWriter w(image);
  w.PutU32(2);  // payload_len
  w.PutU8(static_cast<uint8_t>(JournalFrameType::kManifest));
  w.PutU64(3);  // tick
  w.PutBytes(std::vector<uint8_t>{'x', 'y'});
  w.PutU32(Crc32(image.data() + frame_start, image.size() - frame_start));

  EXPECT_EQ(InspectJournalImage(image).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(RecoverToyImage(image).code(), StatusCode::kDataLoss);
}

TEST(DurabilityTest, SnapshotTickCountBeyondTheJournalIsDataLoss) {
  // A validly CRC'd snapshot that claims more tick frames before it than the journal holds
  // cannot close the conservation books: a fresh manager refuses it, it does not abort.
  std::vector<uint8_t> image = ToyJournalImage(2, {});
  // Frames are [u32 payload_len][u8 type][u64 tick][payload][u32 crc]; the header and manifest
  // come first, and a snapshot payload starts with the u64 tick_frames_before.
  const auto payload_len_at = [&image](size_t frame) {
    return ByteReader(image.data() + frame, 4).U32();
  };
  size_t snapshot = 0;
  for (int frame = 0; frame < 2; ++frame) {
    snapshot += 4 + 1 + 8 + payload_len_at(snapshot) + 4;
  }
  ASSERT_EQ(image[snapshot + 4], static_cast<uint8_t>(JournalFrameType::kSnapshot));
  image[snapshot + 13 + 7] = 0x7f;  // top byte of tick_frames_before
  const size_t crc_at = snapshot + 13 + payload_len_at(snapshot);
  const uint32_t crc = Crc32(image.data() + snapshot, crc_at - snapshot);
  std::memcpy(image.data() + crc_at, &crc, 4);
  ASSERT_TRUE(InspectJournalImage(image).ok()) << "the framing itself is valid";

  EXPECT_EQ(RecoverToyImage(image).code(), StatusCode::kDataLoss);
}

// --- Study-level recovery accounting regressions -----------------------------------------------

// A compact study with the whole controller armed: chaos on the report pipeline, quorum +
// probation (so both books carry entries at study end), and auditing (so the repair
// orchestrator and ledger are part of the journaled state).
StudyOptions RecoveryStudyOptions() {
  StudyOptions options;
  options.seed = 20210531;
  options.fleet.machine_count = 100;
  options.fleet.mercurial_rate_multiplier = 800.0;
  options.workload.payload_bytes = 256;
  options.work_units_per_core_day = 20;
  options.duration = SimTime::Days(80);
  options.screening.offline_period = SimTime::Days(25);
  options.shards = 8;
  options.threads = 2;
  options.control_plane.max_pending = 64;
  options.control_plane.max_retries = 3;
  // Slow retries + frequent aborts keep the interrogation pipeline busy enough that books
  // are open when the study ends (the regression below is about end-of-study books).
  options.control_plane.retry_backoff = SimTime::Days(6);
  options.control_plane.drain_latency = SimTime::Hours(12);
  options.control_plane.drain_timeout = SimTime::Days(4);
  options.control_plane.chaos.abort_interrogation = 0.50;
  options.control_plane.chaos.probation_suppress = 0.80;
  options.control_plane.chaos.machine_restart_per_day = 0.20;
  options.quarantine.recidivism_retire_after = 2;
  options.control_plane.quorum.enabled = true;
  options.control_plane.quorum.witnesses = 3;
  options.control_plane.quorum.witness_error_rate = 0.30;
  options.control_plane.probation.enabled = true;
  // Long probation (4 x 15-day clean windows) so convictions from the back half of the 80-day
  // study are still on the books at the end — the pending-at-end regression needs open books.
  options.control_plane.probation.window = SimTime::Days(15);
  options.control_plane.probation.clean_windows_to_reinstate = 4;
  options.control_plane.probation.weak_after_attempts = 1;
  options.audit.enabled = true;
  options.audit.repair_budget_per_tick = 256;
  options.trace.enabled = true;
  return options;
}

// Satellite regression: the pending-at-end books (suspects still in the pipeline, probation
// records still open) are reconstructed exactly across clean controller crashes — the
// recovered controller finishes with the same open books as one that never died.
TEST(DurabilityTest, PendingAtEndBooksSurviveControllerCrashes) {
  StudyOptions uncrashed = RecoveryStudyOptions();
  FleetStudy reference_study(uncrashed);
  const StudyReport reference = reference_study.Run();

  StudyOptions crashed = RecoveryStudyOptions();
  crashed.durability.enabled = true;
  crashed.control_plane.chaos.controller_crash_every_ticks = 1;  // die after every tick
  FleetStudy crashed_study(crashed);
  const StudyReport report = crashed_study.Run();

  ASSERT_GT(report.durability.controller_crashes, 0u);
  EXPECT_EQ(report.durability.recoveries, report.durability.controller_crashes);
  EXPECT_EQ(report.durability.prefix_recoveries, 0u) << "clean crashes recover exactly";
  EXPECT_EQ(report.durability.frames_truncated, 0u);

  ASSERT_GT(reference.control_plane.pending_at_end +
                reference.control_plane.probation_pending_at_end,
            0u)
      << "harness left no open books; the regression is vacuous";
  EXPECT_EQ(report.control_plane.pending_at_end, reference.control_plane.pending_at_end);
  EXPECT_EQ(report.control_plane.probation_pending_at_end,
            reference.control_plane.probation_pending_at_end);
  EXPECT_EQ(report.quarantine.probation_entries, reference.quarantine.probation_entries);
  EXPECT_EQ(report.quarantine.reinstatements, reference.quarantine.reinstatements);
}

// Torn tails and bit flips force prefix recoveries; every loss and every reconciliation
// action must be accounted, and the run must complete with conservation intact (the study
// CHECKs frames_replayed + frames_truncated == frames covered at finalization).
TEST(DurabilityTest, TornTailRecoveryAccountsEveryLossLoudly) {
  StudyOptions options = RecoveryStudyOptions();
  options.durability.enabled = true;
  options.durability.snapshot_every = 8;
  options.control_plane.chaos.controller_crash_every_ticks = 3;
  options.control_plane.chaos.journal_torn_tail = 0.6;
  options.control_plane.chaos.journal_bit_flip = 0.3;
  FleetStudy study(options);
  const StudyReport report = study.Run();

  ASSERT_GT(report.durability.controller_crashes, 0u);
  EXPECT_EQ(report.durability.recoveries, report.durability.controller_crashes);
  EXPECT_EQ(report.durability.exact_recoveries + report.durability.prefix_recoveries,
            report.durability.recoveries);
  EXPECT_GT(report.durability.prefix_recoveries, 0u)
      << "no torn tail ever landed; the accounting path is untested";
  EXPECT_GT(report.durability.frames_truncated, 0u);
  EXPECT_GT(report.durability.torn_tail_truncations + report.durability.corrupt_frames_rejected,
            0u);
  // Reaching this line at all proves the strong form: FleetStudy::Finalize CHECK-fails unless
  // frames_replayed + frames_truncated exactly covers the frames at risk across every
  // recovery. The books the rolled-back controller kept must stay within what it admitted.
  EXPECT_LE(report.control_plane.pending_at_end, report.control_plane.suspects_admitted);
}

}  // namespace
}  // namespace mercurial
