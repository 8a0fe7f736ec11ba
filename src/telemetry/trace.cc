#include "src/telemetry/trace.h"

#include <algorithm>
#include <cstdio>

#include "src/substrate/checksum.h"

namespace mercurial {
namespace {

// Wire framing: little-endian, fixed layout, CRC over everything that precedes it.
//   magic u32 | version u32 | shards u32 | event_count u64 | emitted u64 | recorded u64 |
//   dropped u64 | sampled_out u64 | events (34B each) | crc32 u32
// The counters and events use the same encoders as the journal's trace-ring payloads.
constexpr uint32_t kTraceMagic = 0x6d747263;  // "crtm" on disk
constexpr uint32_t kTraceVersion = 1;
constexpr size_t kTraceHeaderBytes = 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8;
constexpr size_t kTraceEventBytes = 8 + 8 + 8 + 1 + 1 + 8;

void AppendJsonEscaped(std::string& out, const char* s) {
  // Kind/cause names are plain identifiers, but escape defensively anyway.
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') {
      out.push_back('\\');
    }
    out.push_back(*s);
  }
}

}  // namespace

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kDefectFired: return "defect_fired";
    case TraceEventKind::kSignalEmitted: return "signal_emitted";
    case TraceEventKind::kSuspicionRaised: return "suspicion_raised";
    case TraceEventKind::kInterrogationStart: return "interrogation_start";
    case TraceEventKind::kInterrogationVerdict: return "interrogation_verdict";
    case TraceEventKind::kQuarantineAdmit: return "quarantine_admit";
    case TraceEventKind::kQuarantineShed: return "quarantine_shed";
    case TraceEventKind::kQuarantineDrain: return "quarantine_drain";
    case TraceEventKind::kQuarantineForceRelease: return "quarantine_force_release";
    case TraceEventKind::kConviction: return "conviction";
    case TraceEventKind::kRepairPass: return "repair_pass";
    case TraceEventKind::kRepairRetry: return "repair_retry";
    case TraceEventKind::kRepairShed: return "repair_shed";
    case TraceEventKind::kProbationStart: return "probation_start";
    case TraceEventKind::kProbationEnd: return "probation_end";
    case TraceEventKind::kQuorumVerdict: return "quorum_verdict";
    case TraceEventKind::kRiskRescore: return "risk_rescore";
  }
  return "unknown";
}

const char* TraceCauseName(TraceCause cause) {
  switch (cause) {
    case TraceCause::kNone: return "none";
    case TraceCause::kCorruption: return "corruption";
    case TraceCause::kMachineCheck: return "machine_check";
    case TraceCause::kCrashSignal: return "crash";
    case TraceCause::kSanitizerSignal: return "sanitizer";
    case TraceCause::kMachineCheckSignal: return "mce";
    case TraceCause::kAppReport: return "app_report";
    case TraceCause::kSilentCorruption: return "silent_corruption";
    case TraceCause::kScreenFail: return "screen_fail";
    case TraceCause::kBackgroundNoise: return "background_noise";
    case TraceCause::kConcentration: return "concentration";
    case TraceCause::kDirectEvidence: return "direct_evidence";
    case TraceCause::kAdmitted: return "admitted";
    case TraceCause::kAdmittedDraining: return "admitted_draining";
    case TraceCause::kPipelineFull: return "pipeline_full";
    case TraceCause::kDrainComplete: return "drain_complete";
    case TraceCause::kDrainEscalated: return "drain_escalated";
    case TraceCause::kScheduled: return "scheduled";
    case TraceCause::kRetry: return "retry";
    case TraceCause::kConfessed: return "confessed";
    case TraceCause::kReleased: return "released";
    case TraceCause::kRetiredNoConfession: return "retired_no_confession";
    case TraceCause::kGuardrail: return "guardrail";
    case TraceCause::kMachineRestart: return "machine_restart";
    case TraceCause::kRepairProgress: return "repair_progress";
    case TraceCause::kRepairDone: return "repair_done";
    case TraceCause::kBacklogBound: return "backlog_bound";
    case TraceCause::kAbandoned: return "abandoned";
    case TraceCause::kUserReportSignal: return "user_report";
    case TraceCause::kWeakEvidence: return "weak_evidence";
    case TraceCause::kReinstated: return "reinstated";
    case TraceCause::kProbationEscalated: return "probation_escalated";
    case TraceCause::kProbationSignal: return "probation_signal";
    case TraceCause::kQuorumAgreed: return "quorum_agreed";
    case TraceCause::kQuorumSplit: return "quorum_split";
    case TraceCause::kQuorumFallback: return "quorum_fallback";
    case TraceCause::kRiskAdmitted: return "risk_admitted";
    case TraceCause::kRiskDeferred: return "risk_deferred";
  }
  return "unknown";
}

bool operator==(const TraceEvent& a, const TraceEvent& b) {
  return a.time_seconds == b.time_seconds && a.core == b.core && a.epoch == b.epoch &&
         a.kind == b.kind && a.cause == b.cause && a.detail == b.detail;
}

bool operator==(const TraceCounters& a, const TraceCounters& b) {
  return a.events_emitted == b.events_emitted && a.events_recorded == b.events_recorded &&
         a.events_dropped == b.events_dropped && a.events_sampled_out == b.events_sampled_out;
}

Status TraceOptions::Validate() const {
  if (ring_capacity == 0) {
    return InvalidArgumentError("trace.ring_capacity must be positive");
  }
  return Status::Ok();
}

TraceRecorder::TraceRecorder(const TraceOptions& options, size_t core_count, int shards)
    : options_(options) {
  const size_t shard_count = shards < 1 ? 1 : static_cast<size_t>(shards);
  const size_t cores = core_count == 0 ? 1 : core_count;
  // Same partition as FleetStudy's PartitionCores: shard k owns cores
  // [k * cores_per_shard_, (k + 1) * cores_per_shard_).
  cores_per_shard_ = (cores + shard_count - 1) / shard_count;
  rings_.resize(shard_count);
}

void TraceRecorder::SetTickContext(SimTime now, uint64_t epoch) {
  context_time_seconds_ = now.seconds();
  context_epoch_ = epoch;
}

size_t TraceRecorder::shard_of(uint64_t core) const {
  const size_t shard = static_cast<size_t>(core) / cores_per_shard_;
  return shard < rings_.size() ? shard : rings_.size() - 1;
}

void TraceRecorder::Emit(uint64_t core, TraceEventKind kind, TraceCause cause, uint64_t detail) {
  ShardRing& ring = rings_[shard_of(core)];
  if (log_ops_) {
    ring.tick_dirty = true;  // even a sampled-out event moves seen[] and counters
  }
  const size_t kind_index = static_cast<size_t>(kind);
  const uint32_t every = options_.sample_every[kind_index];
  const uint64_t seen = ring.seen[kind_index]++;
  if (every == 0 || seen % every != 0) {
    ++ring.counters.events_sampled_out;
    return;
  }
  ++ring.counters.events_emitted;
  TraceEvent event;
  event.time_seconds = context_time_seconds_;
  event.core = core;
  event.epoch = context_epoch_;
  event.kind = kind;
  event.cause = cause;
  event.detail = detail;
  if (log_ops_) {
    ring.tick_log.push_back(event);
  }
  if (ring.slots.size() < options_.ring_capacity) {
    ring.slots.push_back(event);
    ++ring.counters.events_recorded;
  } else {
    // Overwrite the oldest event. Loud loss: recorded stays flat, dropped counts up, and the
    // conservation invariant dropped + recorded == emitted keeps holding.
    ring.slots[ring.head] = event;
    ring.head = (ring.head + 1) % options_.ring_capacity;
    ++ring.counters.events_dropped;
  }
}

TraceCounters TraceRecorder::Totals() const {
  TraceCounters totals;
  for (const ShardRing& ring : rings_) {
    totals.events_emitted += ring.counters.events_emitted;
    totals.events_recorded += ring.counters.events_recorded;
    totals.events_dropped += ring.counters.events_dropped;
    totals.events_sampled_out += ring.counters.events_sampled_out;
  }
  return totals;
}

IncidentTrace TraceRecorder::Assemble() const {
  IncidentTrace trace;
  trace.shards = static_cast<uint32_t>(rings_.size());
  trace.counters = Totals();
  trace.events.reserve(trace.counters.events_recorded);
  // Concatenate rings in shard-index order, each unwrapped oldest-first, then stable-sort by
  // time: equal-time events stay grouped by owning shard in ring order. Every input to this
  // merge is identical for any thread count, so the output is too.
  for (const ShardRing& ring : rings_) {
    if (ring.slots.size() < options_.ring_capacity) {
      trace.events.insert(trace.events.end(), ring.slots.begin(), ring.slots.end());
    } else {
      trace.events.insert(trace.events.end(), ring.slots.begin() + ring.head, ring.slots.end());
      trace.events.insert(trace.events.end(), ring.slots.begin(), ring.slots.begin() + ring.head);
    }
  }
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time_seconds < b.time_seconds;
                   });
  return trace;
}

bool TraceRecorder::HasTickOps() const {
  for (const ShardRing& ring : rings_) {
    if (ring.tick_dirty) {
      return true;
    }
  }
  return false;
}

void TraceRecorder::DrainTickOps(ByteWriter& w) {
  std::vector<RingDelta> deltas;
  for (size_t shard = 0; shard < rings_.size(); ++shard) {
    ShardRing& ring = rings_[shard];
    if (ring.tick_dirty) {
      deltas.push_back(
          {static_cast<uint32_t>(shard), std::move(ring.tick_log), ring.seen, ring.counters});
      ring.tick_log.clear();
      ring.tick_dirty = false;
    }
  }
  w(deltas);
}

Status TraceRecorder::ApplyTickOps(ByteReader& r) {
  std::vector<RingDelta> deltas;
  r(deltas);
  for (size_t i = 0; i < deltas.size(); ++i) {
    r.Check(deltas[i].shard < rings_.size() && (i == 0 || deltas[i - 1].shard < deltas[i].shard),
            "trace tick delta names a shard out of range or out of order");
  }
  if (!r.ok()) {
    return r.status();
  }
  for (const RingDelta& delta : deltas) {
    ShardRing& ring = rings_[delta.shard];
    for (const TraceEvent& event : delta.inserted) {
      if (ring.slots.size() < options_.ring_capacity) {
        ring.slots.push_back(event);
      } else {
        ring.slots[ring.head] = event;
        ring.head = (ring.head + 1) % options_.ring_capacity;
      }
    }
    ring.seen = delta.seen;
    ring.counters = delta.counters;
    ring.tick_log.clear();
    ring.tick_dirty = false;
  }
  return Status::Ok();
}

void TraceRecorder::SaveDurableState(ByteWriter& w) const { w(rings_); }

Status TraceRecorder::LoadDurableState(ByteReader& r) {
  std::vector<ShardRing> rings;
  r(rings);
  r.Check(rings.size() == rings_.size(), "trace snapshot shard count does not match the recorder");
  for (const ShardRing& ring : rings) {
    r.Check(ring.slots.size() <= options_.ring_capacity,
            "trace snapshot ring exceeds ring_capacity");
    r.Check(ring.head < ring.slots.size() || (ring.head == 0 && ring.slots.empty()),
            "trace snapshot ring head out of range");
  }
  if (!r.ok()) {
    return r.status();
  }
  rings_ = std::move(rings);
  return Status::Ok();
}

std::vector<uint8_t> SerializeTrace(const IncidentTrace& trace) {
  std::vector<uint8_t> out;
  out.reserve(kTraceHeaderBytes + trace.events.size() * kTraceEventBytes + 4);
  ByteWriter w(out);
  w(kTraceMagic, kTraceVersion, trace.shards, static_cast<uint64_t>(trace.events.size()),
    trace.counters);
  for (const TraceEvent& event : trace.events) {
    w(event);
  }
  w.PutU32(Crc32(out.data(), out.size()));
  return out;
}

StatusOr<IncidentTrace> ParseTrace(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes.data(), bytes.size());
  IncidentTrace trace;
  r.Check(r.U32() == kTraceMagic, "trace frame corrupt: bad magic");
  r.Check(r.U32() == kTraceVersion, "trace frame corrupt: unsupported version");
  trace.shards = r.U32();
  const uint64_t event_count = r.Count<uint64_t>(kTraceEventBytes);
  r(trace.counters);
  // Exactly the events and the CRC remain.
  r.Check(r.remaining() == event_count * kTraceEventBytes + 4,
          "trace frame corrupt: size does not match event count");
  ByteReader events = r.Bytes(event_count * kTraceEventBytes);
  const uint32_t stored_crc = r.U32();
  if (r.ok()) {
    r.Check(Crc32(bytes.data(), bytes.size() - 4) == stored_crc,
            "trace frame corrupt: checksum mismatch");
  }
  if (!r.ok()) {
    return r.status();
  }
  trace.events.resize(event_count);
  for (TraceEvent& event : trace.events) {
    events(event);
  }
  if (!events.ok()) {
    return events.status();
  }
  return trace;
}

std::string TraceToJsonl(const IncidentTrace& trace) {
  std::string out;
  char buf[160];
  for (const TraceEvent& event : trace.events) {
    std::snprintf(buf, sizeof(buf), "{\"time_s\":%lld,\"core\":%llu,\"epoch\":%llu,\"kind\":\"",
                  static_cast<long long>(event.time_seconds),
                  static_cast<unsigned long long>(event.core),
                  static_cast<unsigned long long>(event.epoch));
    out += buf;
    AppendJsonEscaped(out, TraceEventKindName(event.kind));
    out += "\",\"cause\":\"";
    AppendJsonEscaped(out, TraceCauseName(event.cause));
    std::snprintf(buf, sizeof(buf), "\",\"detail\":%llu}\n",
                  static_cast<unsigned long long>(event.detail));
    out += buf;
  }
  return out;
}

std::string TraceToCsv(const IncidentTrace& trace) {
  std::string out = "time_s,core,epoch,kind,cause,detail\n";
  char buf[160];
  for (const TraceEvent& event : trace.events) {
    std::snprintf(buf, sizeof(buf), "%lld,%llu,%llu,%s,%s,%llu\n",
                  static_cast<long long>(event.time_seconds),
                  static_cast<unsigned long long>(event.core),
                  static_cast<unsigned long long>(event.epoch),
                  TraceEventKindName(event.kind), TraceCauseName(event.cause),
                  static_cast<unsigned long long>(event.detail));
    out += buf;
  }
  return out;
}

TraceQuery::TraceQuery(const IncidentTrace& trace) : trace_(&trace) {
  for (size_t i = 0; i < trace.events.size(); ++i) {
    by_core_[trace.events[i].core].push_back(i);
  }
}

std::vector<TraceEvent> TraceQuery::CoreTimeline(uint64_t core) const {
  std::vector<TraceEvent> out;
  auto it = by_core_.find(core);
  if (it == by_core_.end()) {
    return out;
  }
  out.reserve(it->second.size());
  for (size_t index : it->second) {
    out.push_back(trace_->events[index]);
  }
  return out;
}

std::vector<TraceEvent> TraceQuery::TimeWindow(SimTime begin, SimTime end) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : trace_->events) {
    if (event.time_seconds >= begin.seconds() && event.time_seconds < end.seconds()) {
      out.push_back(event);
    }
  }
  return out;
}

std::vector<TraceEvent> TraceQuery::CauseChain(uint64_t core) const {
  std::vector<TraceEvent> out;
  auto it = by_core_.find(core);
  if (it == by_core_.end()) {
    return out;
  }
  // Walk back from the conviction: the chain is everything the recorder kept about the core
  // up to and including its (first) conviction event.
  size_t conviction = it->second.size();
  for (size_t i = 0; i < it->second.size(); ++i) {
    if (trace_->events[it->second[i]].kind == TraceEventKind::kConviction) {
      conviction = i;
      break;
    }
  }
  if (conviction == it->second.size()) {
    return out;
  }
  out.reserve(conviction + 1);
  for (size_t i = 0; i <= conviction; ++i) {
    out.push_back(trace_->events[it->second[i]]);
  }
  return out;
}

std::vector<uint64_t> TraceQuery::ConvictedCores() const {
  std::vector<uint64_t> out;
  for (const auto& [core, indices] : by_core_) {
    for (size_t index : indices) {
      if (trace_->events[index].kind == TraceEventKind::kConviction) {
        out.push_back(core);
        break;
      }
    }
  }
  return out;
}

}  // namespace mercurial
