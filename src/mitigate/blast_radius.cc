#include "src/mitigate/blast_radius.h"

#include <algorithm>

#include "src/common/logging.h"

namespace mercurial {

const char* ArtifactKindName(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kChecksummedWrite:
      return "checksummed_write";
    case ArtifactKind::kLogEpoch:
      return "log_epoch";
    case ArtifactKind::kCheckpoint:
      return "checkpoint";
    case ArtifactKind::kPlainOutput:
      return "plain_output";
  }
  return "unknown";
}

ArtifactKind ArtifactKindForWorkload(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kMemcpy:
    case WorkloadKind::kCompression:
    case WorkloadKind::kHash:
      return ArtifactKind::kChecksummedWrite;
    case WorkloadKind::kLocking:
    case WorkloadKind::kDbIndex:
      return ArtifactKind::kLogEpoch;
    case WorkloadKind::kGarbageCollect:
    case WorkloadKind::kKernel:
    case WorkloadKind::kMatmul:
      return ArtifactKind::kCheckpoint;
    case WorkloadKind::kCrypto:
    case WorkloadKind::kSorting:
    case WorkloadKind::kVectorScan:
    case WorkloadKind::kArithmetic:
      return ArtifactKind::kPlainOutput;
  }
  return ArtifactKind::kPlainOutput;
}

uint64_t BlastRadiusLedger::EpochArtifacts::produced() const {
  uint64_t total = 0;
  for (const ArtifactCounts& kind_counts : counts) {
    total += kind_counts.produced;
  }
  return total;
}

uint64_t BlastRadiusLedger::EpochArtifacts::corrupt() const {
  uint64_t total = 0;
  for (const ArtifactCounts& kind_counts : counts) {
    total += kind_counts.corrupt;
  }
  return total;
}

void BlastRadiusLedger::RecordArtifacts(uint64_t core_global, uint64_t epoch, ArtifactKind kind,
                                        uint64_t produced, uint64_t corrupt) {
  if (produced == 0) {
    return;
  }
  MERCURIAL_CHECK_GE(produced, corrupt);
  CoreLedger& core = cores_[core_global];
  if (core.epochs.empty() || core.epochs.back().epoch != epoch) {
    MERCURIAL_CHECK(core.epochs.empty() || core.epochs.back().epoch < epoch)
        << "epochs must arrive in non-decreasing order per core";
    core.epochs.push_back(EpochArtifacts{epoch, {}});
  }
  ArtifactCounts& counts = core.epochs.back().counts[static_cast<int>(kind)];
  counts.produced += produced;
  counts.corrupt += corrupt;
  artifacts_recorded_ += produced;
  corrupt_recorded_ += corrupt;
  if (log_ops_) {
    tick_ops_.push_back({.kind = MutationOp::Kind::kArtifacts,
                         .core_global = core_global,
                         .epoch = epoch,
                         .artifact_kind = kind,
                         .counts = {produced, corrupt}});
  }
}

void BlastRadiusLedger::NoteSignal(uint64_t core_global, SimTime time) {
  CoreLedger& core = cores_[core_global];
  if (!core.has_signal || time < core.first_signal) {
    core.first_signal = time;
    core.has_signal = true;
    if (log_ops_) {
      tick_ops_.push_back(
          {.kind = MutationOp::Kind::kSignal, .core_global = core_global, .signal = time});
    }
  }
}

void BlastRadiusLedger::MergeFrom(BlastRadiusLedger& other) {
  // Shard ledgers are merged, not recorded into, so the mutation log captures the incoming
  // content here: one artifacts op per non-empty (core, epoch, kind) bucket, in the incoming
  // ledger's deterministic (sorted-core, epoch-order) iteration order.
  if (log_ops_) {
    for (const auto& [core_global, incoming] : other.cores_) {
      for (const EpochArtifacts& epoch : incoming.epochs) {
        for (int k = 0; k < kArtifactKindCount; ++k) {
          if (epoch.counts[k].produced == 0 && epoch.counts[k].corrupt == 0) {
            continue;
          }
          tick_ops_.push_back({.kind = MutationOp::Kind::kArtifacts,
                               .core_global = core_global,
                               .epoch = epoch.epoch,
                               .artifact_kind = static_cast<ArtifactKind>(k),
                               .counts = epoch.counts[k]});
        }
      }
      if (incoming.has_signal) {
        const CoreLedger* existing = Find(core_global);
        if (existing == nullptr || !existing->has_signal ||
            incoming.first_signal < existing->first_signal) {
          tick_ops_.push_back({.kind = MutationOp::Kind::kSignal,
                               .core_global = core_global,
                               .signal = incoming.first_signal});
        }
      }
    }
  }
  for (auto& [core_global, incoming] : other.cores_) {
    CoreLedger& core = cores_[core_global];
    for (EpochArtifacts& epoch : incoming.epochs) {
      if (!core.epochs.empty() && core.epochs.back().epoch == epoch.epoch) {
        for (int k = 0; k < kArtifactKindCount; ++k) {
          core.epochs.back().counts[k].produced += epoch.counts[k].produced;
          core.epochs.back().counts[k].corrupt += epoch.counts[k].corrupt;
        }
      } else {
        MERCURIAL_CHECK(core.epochs.empty() || core.epochs.back().epoch < epoch.epoch)
            << "shard ledgers must merge in epoch order";
        core.epochs.push_back(epoch);
      }
    }
    if (incoming.has_signal) {
      if (!core.has_signal || incoming.first_signal < core.first_signal) {
        core.first_signal = incoming.first_signal;
        core.has_signal = true;
      }
    }
  }
  artifacts_recorded_ += other.artifacts_recorded_;
  corrupt_recorded_ += other.corrupt_recorded_;
  other.Clear();
}

void BlastRadiusLedger::Clear() {
  cores_.clear();
  artifacts_recorded_ = 0;
  corrupt_recorded_ = 0;
}

const BlastRadiusLedger::CoreLedger* BlastRadiusLedger::Find(uint64_t core_global) const {
  const auto it = cores_.find(core_global);
  return it == cores_.end() ? nullptr : &it->second;
}

uint64_t BlastRadiusLedger::ArtifactsForCore(uint64_t core_global) const {
  const CoreLedger* core = Find(core_global);
  if (core == nullptr) {
    return 0;
  }
  uint64_t total = 0;
  for (const EpochArtifacts& epoch : core->epochs) {
    total += epoch.produced();
  }
  return total;
}

uint64_t BlastRadiusLedger::CorruptForCore(uint64_t core_global) const {
  const CoreLedger* core = Find(core_global);
  if (core == nullptr) {
    return 0;
  }
  uint64_t total = 0;
  for (const EpochArtifacts& epoch : core->epochs) {
    total += epoch.corrupt();
  }
  return total;
}

void BlastRadiusLedger::DrainTickOps(ByteWriter& w) {
  w(tick_ops_);
  tick_ops_.clear();
}

Status BlastRadiusLedger::ApplyTickOps(ByteReader& r) {
  std::vector<MutationOp> ops;
  r(ops);
  // RecordArtifacts requires each core's epochs to arrive in non-decreasing order; a log that
  // breaks it is refused here instead of aborting the replay.
  std::map<uint64_t, uint64_t> last_epoch;
  for (const MutationOp& op : ops) {
    if (op.kind != MutationOp::Kind::kArtifacts || op.counts.produced == 0) {
      continue;
    }
    const auto [last, fresh] = last_epoch.try_emplace(op.core_global, 0);
    const CoreLedger* core = fresh ? Find(op.core_global) : nullptr;
    if (core != nullptr && !core->epochs.empty()) {
      last->second = core->epochs.back().epoch;
    }
    r.Check(op.epoch >= last->second, "blast-radius op epochs out of order");
    last->second = op.epoch;
  }
  if (!r.ok()) {
    return r.status();
  }
  // Replay through the normal recording paths with logging suspended, so the replayed
  // mutations are not re-logged into the next tick frame.
  const bool saved_log = log_ops_;
  log_ops_ = false;
  for (const MutationOp& op : ops) {
    if (op.kind == MutationOp::Kind::kArtifacts) {
      RecordArtifacts(op.core_global, op.epoch, op.artifact_kind, op.counts.produced,
                      op.counts.corrupt);
    } else {
      NoteSignal(op.core_global, op.signal);
    }
  }
  log_ops_ = saved_log;
  return Status::Ok();
}

void BlastRadiusLedger::SaveDurableState(ByteWriter& w) const { w(DurableFields(*this)); }

Status BlastRadiusLedger::LoadDurableState(ByteReader& r) {
  if (Status s = r.Restore(DurableFields(*this)); !s.ok()) {
    return s;
  }
  tick_ops_.clear();
  return Status::Ok();
}

}  // namespace mercurial
