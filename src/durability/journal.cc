#include "src/durability/journal.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "src/common/logging.h"
#include "src/substrate/checksum.h"

namespace mercurial {

namespace {

constexpr uint32_t kJournalMagic = 0x4c4a434d;  // "MCJL"
constexpr uint32_t kJournalVersion = 1;
// u32 payload_len + u8 type + u64 tick before the payload (the CRC covers them too).
constexpr size_t kFramePrefixBytes = 4 + 1 + 8;

bool ValidFrameType(uint8_t type) {
  return type == static_cast<uint8_t>(JournalFrameType::kHeader) ||
         type == static_cast<uint8_t>(JournalFrameType::kManifest) ||
         type == static_cast<uint8_t>(JournalFrameType::kSnapshot) ||
         type == static_cast<uint8_t>(JournalFrameType::kTickDelta);
}

// One frame of a journal image's durable prefix.
struct JournalFrame {
  JournalFrameType type = JournalFrameType::kHeader;
  uint64_t tick = 0;
  ByteReader payload;
  size_t end = 0;  // offset one past the CRC
};

struct JournalScan {
  std::vector<JournalFrame> frames;  // the durable prefix
  size_t snapshot = 0;               // index of the latest snapshot frame
  bool torn_tail = false;            // scan ended by a clipped frame
  bool corrupt_frame = false;        // scan ended by a CRC/type-invalid frame
};

// The journal's one frame scanner; InspectJournalImage and Recover() both read images through
// it, so they accept and refuse exactly the same ones. It trusts the longest prefix of whole,
// CRC-valid frames of a known type, then refuses with DATA_LOSS a prefix that breaks the
// structure the writer always produces: a header with the right magic and version first, at
// least one snapshot, and only tick frames after the latest snapshot. The payloads of the
// returned frames point into `image`.
StatusOr<JournalScan> ScanJournal(const std::vector<uint8_t>& image) {
  JournalScan scan;
  ByteReader r(image.data(), image.size());
  while (r.remaining() > 0) {
    const size_t begin = image.size() - r.remaining();
    JournalFrame frame;
    uint32_t payload_len = 0;
    uint8_t type = 0;
    uint32_t stored_crc = 0;
    if (!r.GetU32(&payload_len).ok() || !r.GetU8(&type).ok() || !r.GetU64(&frame.tick).ok() ||
        !r.GetBytes(payload_len, &frame.payload).ok() || !r.GetU32(&stored_crc).ok()) {
      // A clipped body and a bit flip in the length word are indistinguishable here; both end
      // the durable prefix, classified as a torn tail.
      scan.torn_tail = true;
      break;
    }
    if (stored_crc != Crc32(image.data() + begin, kFramePrefixBytes + payload_len) ||
        !ValidFrameType(type)) {
      scan.corrupt_frame = true;
      break;
    }
    frame.type = static_cast<JournalFrameType>(type);
    frame.end = image.size() - r.remaining();
    scan.frames.push_back(frame);
  }

  if (scan.frames.empty() || scan.frames.front().type != JournalFrameType::kHeader) {
    return DataLossError("journal has no valid header frame");
  }
  ByteReader header = scan.frames.front().payload;
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!header.GetU32(&magic).ok() || !header.GetU32(&version).ok() || !header.ExpectEnd().ok() ||
      magic != kJournalMagic || version != kJournalVersion) {
    return DataLossError("journal header magic/version mismatch");
  }
  scan.snapshot = scan.frames.size();
  for (size_t i = scan.frames.size(); i-- > 0;) {
    if (scan.frames[i].type == JournalFrameType::kSnapshot) {
      scan.snapshot = i;
      break;
    }
    if (scan.frames[i].type != JournalFrameType::kTickDelta) {
      return DataLossError("non-tick frame after the latest snapshot");
    }
  }
  if (scan.snapshot == scan.frames.size()) {
    return DataLossError("journal has no valid snapshot frame");
  }
  return scan;
}

// Reads one unit's PutBlob payload through `load`, which must consume all of it.
Status LoadBlob(ByteReader& r, const DurabilityManager::LoadFn& load) {
  ByteReader blob;
  if (Status s = r.GetBlob(&blob); !s.ok()) {
    return s;
  }
  if (Status s = load(blob); !s.ok()) {
    return s;
  }
  return blob.ExpectEnd();
}

}  // namespace

StatusOr<JournalImageInfo> InspectJournalImage(const std::vector<uint8_t>& image) {
  const StatusOr<JournalScan> scan = ScanJournal(image);
  if (!scan.ok()) {
    return scan.status();
  }
  JournalImageInfo info;
  info.torn_tail = scan->torn_tail;
  info.corrupt_frame = scan->corrupt_frame;
  for (const JournalFrame& frame : scan->frames) {
    ++info.frames;
    info.durable_tick = frame.tick;
    info.durable_prefix_bytes = frame.end;
    if (frame.type == JournalFrameType::kSnapshot) {
      ++info.snapshots;
      info.snapshot_tick = frame.tick;
    } else if (frame.type == JournalFrameType::kTickDelta) {
      ++info.tick_frames;
    } else if (frame.type == JournalFrameType::kManifest) {
      info.manifest.assign(frame.payload.bytes().begin(), frame.payload.bytes().end());
    }
  }
  return info;
}

DurabilityManager::DurabilityManager(Options options) : options_(std::move(options)) {}

void DurabilityManager::RegisterUnit(std::string name, SaveFn save, LoadFn load) {
  MERCURIAL_CHECK(!started_) << "units must be registered before Start()";
  Unit unit;
  unit.name = std::move(name);
  unit.save = std::move(save);
  unit.load = std::move(load);
  units_.push_back(std::move(unit));
}

void DurabilityManager::RegisterDeltaUnit(std::string name, SaveFn save, LoadFn load,
                                          HasOpsFn has_ops, SaveFn drain, LoadFn apply) {
  MERCURIAL_CHECK(!started_) << "units must be registered before Start()";
  Unit unit;
  unit.name = std::move(name);
  unit.save = std::move(save);
  unit.load = std::move(load);
  unit.is_delta = true;
  unit.has_ops = std::move(has_ops);
  unit.drain = std::move(drain);
  unit.apply = std::move(apply);
  units_.push_back(std::move(unit));
}

void DurabilityManager::AppendFrame(JournalFrameType type, uint64_t tick,
                                    const std::vector<uint8_t>& payload) {
  const size_t start = buffer_.size();
  ByteWriter w(buffer_);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU64(tick);
  w.PutBytes(payload);
  const uint32_t crc = Crc32(buffer_.data() + start, buffer_.size() - start);
  w.PutU32(crc);
  ++stats_.frames_written;
  stats_.bytes_written += buffer_.size() - start;
  if (type == JournalFrameType::kSnapshot) {
    ++stats_.snapshots_written;
    last_snapshot_end_ = buffer_.size();
    tick_frames_at_last_snapshot_ = stats_.tick_frames_written;
  } else if (type == JournalFrameType::kTickDelta) {
    ++stats_.tick_frames_written;
  }
  SyncFile();
}

void DurabilityManager::WriteSnapshot(uint64_t tick) {
  std::vector<uint8_t> payload;
  ByteWriter w(payload);
  // Cumulative tick frames before this snapshot: recovery uses it to close the conservation
  // invariant frames_replayed + frames_truncated == tick frames written since the snapshot.
  w.PutU64(stats_.tick_frames_written);
  w.PutU32(static_cast<uint32_t>(units_.size()));
  for (Unit& unit : units_) {
    std::vector<uint8_t> bytes;
    bytes.reserve(unit.last_bytes.size() + 64);
    ByteWriter unit_writer(bytes);
    unit.save(unit_writer);
    w.PutBlob(bytes);
    if (unit.is_delta) {
      // The snapshot captures post-tick state; this tick's ops are subsumed by it, so they
      // are drained and discarded — a replay from this snapshot must not re-apply them.
      std::vector<uint8_t> discard;
      ByteWriter discard_writer(discard);
      unit.drain(discard_writer);
    } else {
      unit.last_bytes = std::move(bytes);
    }
  }
  AppendFrame(JournalFrameType::kSnapshot, tick, payload);
}

void DurabilityManager::WriteTickDelta(uint64_t tick) {
  std::vector<uint8_t> payload;
  ByteWriter w(payload);
  // Full units whose serialized state changed since their last journaled bytes. Comparing
  // serializations (not trusting mutation paths to self-report) means a forgotten dirty bit
  // is impossible by construction.
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> dirty;
  for (uint32_t i = 0; i < units_.size(); ++i) {
    Unit& unit = units_[i];
    if (unit.is_delta) {
      continue;
    }
    std::vector<uint8_t> bytes;
    // The previous serialization is an exact size prediction unless the unit grew this tick,
    // so reserving it turns the per-tick dirty probe into a single allocation.
    bytes.reserve(unit.last_bytes.size() + 64);
    ByteWriter unit_writer(bytes);
    unit.save(unit_writer);
    if (bytes != unit.last_bytes) {
      dirty.emplace_back(i, std::move(bytes));
    }
  }
  w.PutU32(static_cast<uint32_t>(dirty.size()));
  for (auto& [index, bytes] : dirty) {
    w.PutU32(index);
    w.PutBlob(bytes);
    units_[index].last_bytes = std::move(bytes);
  }
  uint32_t delta_count = 0;
  for (Unit& unit : units_) {
    if (unit.is_delta && unit.has_ops()) {
      ++delta_count;
    }
  }
  w.PutU32(delta_count);
  for (uint32_t i = 0; i < units_.size(); ++i) {
    Unit& unit = units_[i];
    if (!unit.is_delta || !unit.has_ops()) {
      continue;
    }
    std::vector<uint8_t> ops;
    ByteWriter ops_writer(ops);
    unit.drain(ops_writer);
    w.PutU32(i);
    w.PutBlob(ops);
  }
  AppendFrame(JournalFrameType::kTickDelta, tick, payload);
}

Status DurabilityManager::Start(uint64_t tick, const std::vector<uint8_t>& manifest) {
  MERCURIAL_CHECK(!started_) << "DurabilityManager::Start called twice";
  MERCURIAL_CHECK(!units_.empty()) << "no durable units registered";
  started_ = true;
  std::vector<uint8_t> header;
  ByteWriter w(header);
  w.PutU32(kJournalMagic);
  w.PutU32(kJournalVersion);
  AppendFrame(JournalFrameType::kHeader, tick, header);
  AppendFrame(JournalFrameType::kManifest, tick, manifest);
  WriteSnapshot(tick);
  return Status::Ok();
}

void DurabilityManager::EndTick(uint64_t tick) {
  MERCURIAL_CHECK(started_) << "EndTick before Start";
  const auto start = std::chrono::steady_clock::now();
  if (options_.snapshot_every > 0 &&
      stats_.tick_frames_written - tick_frames_at_last_snapshot_ + 1 >= options_.snapshot_every) {
    // Count the tick frame the snapshot replaces, so cadence counts ticks, not frame types.
    ++stats_.tick_frames_written;
    WriteSnapshot(tick);
  } else {
    WriteTickDelta(tick);
  }
  stats_.end_tick_nanos += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
}

uint64_t DurabilityManager::tick_frames_since_snapshot() const {
  return stats_.tick_frames_written - tick_frames_at_last_snapshot_;
}

Status DurabilityManager::ApplySnapshot(ByteReader r, uint64_t* tick_frames_before) {
  uint32_t unit_count = 0;
  if (Status s = r.GetU64(tick_frames_before); !s.ok()) {
    return s;
  }
  if (Status s = r.GetU32(&unit_count); !s.ok()) {
    return s;
  }
  if (unit_count != units_.size()) {
    return DataLossError("snapshot unit count does not match the registered units");
  }
  for (Unit& unit : units_) {
    if (Status s = LoadBlob(r, unit.load); !s.ok()) {
      return s;
    }
  }
  return r.ExpectEnd();
}

Status DurabilityManager::ApplyTickDelta(ByteReader r) {
  uint32_t full_count = 0;
  if (Status s = r.GetU32(&full_count); !s.ok()) {
    return s;
  }
  for (uint32_t i = 0; i < full_count; ++i) {
    uint32_t index = 0;
    if (Status s = r.GetU32(&index); !s.ok()) {
      return s;
    }
    if (index >= units_.size() || units_[index].is_delta) {
      return DataLossError("tick frame names an invalid full unit");
    }
    if (Status s = LoadBlob(r, units_[index].load); !s.ok()) {
      return s;
    }
  }
  uint32_t delta_count = 0;
  if (Status s = r.GetU32(&delta_count); !s.ok()) {
    return s;
  }
  for (uint32_t i = 0; i < delta_count; ++i) {
    uint32_t index = 0;
    if (Status s = r.GetU32(&index); !s.ok()) {
      return s;
    }
    if (index >= units_.size() || !units_[index].is_delta) {
      return DataLossError("tick frame names an invalid delta unit");
    }
    if (Status s = LoadBlob(r, units_[index].apply); !s.ok()) {
      return s;
    }
  }
  return r.ExpectEnd();
}

void DurabilityManager::RebuildCaches() {
  for (Unit& unit : units_) {
    if (unit.is_delta) {
      continue;
    }
    std::vector<uint8_t> bytes;
    ByteWriter w(bytes);
    unit.save(w);
    unit.last_bytes = std::move(bytes);
  }
}

StatusOr<DurabilityManager::RecoveryResult> DurabilityManager::Recover() {
  // The scan itself mutates nothing; why it stopped (clean end, torn tail, corrupt frame)
  // feeds the loss accounting.
  StatusOr<JournalScan> scanned = ScanJournal(buffer_);
  if (!scanned.ok()) {
    return scanned.status();
  }
  const std::vector<JournalFrame>& frames = scanned->frames;
  const size_t snapshot_index = scanned->snapshot;
  const bool torn = scanned->torn_tail;
  const bool corrupt = scanned->corrupt_frame;

  // A fresh manager recovering a journal image it did not write (the CLI path) has no write
  // stats; adopt the scanned prefix as the written history so conservation closes with zero
  // truncation attributed to the unknowable physical tail.
  if (stats_.frames_written == 0) {
    for (const JournalFrame& frame : frames) {
      ++stats_.frames_written;
      if (frame.type == JournalFrameType::kSnapshot) {
        ++stats_.snapshots_written;
      } else if (frame.type == JournalFrameType::kTickDelta) {
        ++stats_.tick_frames_written;
      }
    }
    stats_.bytes_written = frames.back().end;
    // Mirror EndTick's counting: every snapshot after the initial one replaced (and counted)
    // a due tick frame, so covered-frame math closes with zero truncation attributed to the
    // physically unknowable tail.
    if (stats_.snapshots_written > 0) {
      stats_.tick_frames_written += stats_.snapshots_written - 1;
    }
  }

  uint64_t tick_frames_before = 0;
  if (Status s = ApplySnapshot(frames[snapshot_index].payload, &tick_frames_before); !s.ok()) {
    return s;
  }
  const uint64_t replayed = frames.size() - snapshot_index - 1;
  for (size_t i = snapshot_index + 1; i < frames.size(); ++i) {
    if (Status s = ApplyTickDelta(frames[i].payload); !s.ok()) {
      return s;
    }
  }

  // The snapshot payload's tick_frames_before includes the tick a due snapshot replaced
  // (EndTick counts it before writing), so `covered` is exactly the tick frames written after
  // this snapshot — replayed ones plus whatever the lost tail carried. A count that cannot
  // cover the replayed frames was not written by this journal's history.
  if (tick_frames_before > stats_.tick_frames_written ||
      stats_.tick_frames_written - tick_frames_before < replayed) {
    return DataLossError("snapshot tick-frame count disagrees with the journal");
  }
  const uint64_t truncated = stats_.tick_frames_written - tick_frames_before - replayed;

  RecoveryResult result;
  result.durable_tick = frames.back().tick;
  result.snapshot_tick = frames[snapshot_index].tick;
  result.frames_replayed = replayed;
  result.frames_truncated = truncated;
  result.exact = truncated == 0 && !torn && !corrupt;

  ++stats_.recoveries;
  if (result.exact) {
    ++stats_.exact_recoveries;
  } else {
    ++stats_.prefix_recoveries;
  }
  stats_.frames_replayed += replayed;
  stats_.frames_truncated += truncated;
  if (torn) {
    ++stats_.torn_tail_truncations;
  }
  if (corrupt) {
    ++stats_.corrupt_frames_rejected;
  }

  // Manifest: last valid manifest frame in the prefix (there is exactly one in practice).
  for (const JournalFrame& frame : frames) {
    if (frame.type == JournalFrameType::kManifest) {
      recovered_manifest_.assign(frame.payload.bytes().begin(), frame.payload.bytes().end());
    }
  }

  // Truncate to the durable prefix: everything after the last valid frame is untrusted. The
  // write cursor continues from here — recovery rewinds the journal as well as the state.
  buffer_.resize(frames.back().end);
  last_snapshot_end_ = frames[snapshot_index].end;
  tick_frames_at_last_snapshot_ = tick_frames_before;
  // Rewind the written-frame accounting to the durable prefix so post-recovery writes keep
  // conservation exact: frames written past the prefix were just accounted as truncated.
  stats_.tick_frames_written -= truncated;
  RebuildCaches();
  started_ = true;
  SyncFile();
  return result;
}

void DurabilityManager::TearTail(size_t bytes) {
  MERCURIAL_CHECK_LE(last_snapshot_end_, buffer_.size());
  const size_t tail = buffer_.size() - last_snapshot_end_;
  MERCURIAL_CHECK_LE(bytes, tail) << "torn tail cannot reach past the last snapshot";
  buffer_.resize(buffer_.size() - bytes);
  SyncFile();
}

void DurabilityManager::FlipBit(size_t byte_offset, int bit) {
  MERCURIAL_CHECK_GE(byte_offset, last_snapshot_end_) << "bit flips stay in the mutable tail";
  MERCURIAL_CHECK_LT(byte_offset, buffer_.size());
  MERCURIAL_CHECK(bit >= 0 && bit < 8);
  buffer_[byte_offset] ^= static_cast<uint8_t>(1u << bit);
  SyncFile();
}

void DurabilityManager::ReplaceBuffer(std::vector<uint8_t> bytes) {
  MERCURIAL_CHECK(!started_) << "ReplaceBuffer is for recovery on a fresh manager";
  buffer_ = std::move(bytes);
}

void DurabilityManager::SyncFile() const {
  if (options_.path.empty()) {
    return;
  }
  // Whole-image rewrite: the journal is modest (snapshots bound it) and recovery/chaos also
  // truncate, which an append-only stream cannot express. std::FILE keeps the dependency
  // surface minimal.
  std::FILE* file = std::fopen(options_.path.c_str(), "wb");
  MERCURIAL_CHECK(file != nullptr) << "cannot open journal file " << options_.path;
  if (!buffer_.empty()) {
    const size_t written = std::fwrite(buffer_.data(), 1, buffer_.size(), file);
    MERCURIAL_CHECK_EQ(written, buffer_.size()) << "short journal write " << options_.path;
  }
  MERCURIAL_CHECK_EQ(std::fclose(file), 0);
}

}  // namespace mercurial
