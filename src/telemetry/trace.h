// Deterministic incident flight recorder (§1, §5).
//
// "Understanding and debugging these failures required weeks of effort by sworn experts" —
// the aggregate counters in MetricRegistry and StudyReport can say *how many* convictions and
// repairs happened, but not *why this core, on this day*. The flight recorder captures the
// typed lifecycle of every incident — defect fired, signal emitted, suspicion raised,
// interrogation start/verdict, quarantine admit/shed/drain/force-release, conviction, repair
// pass/retry/shed — as a bounded, shard-local ring of events stamped with
// (sim_time, core, epoch, cause).
//
// Traces are evidence, so they obey three rules:
//   deterministic — events route to the shard that owns the core (the same split the fleet
//     engine uses), each shard's ring is written by exactly one thread during the parallel
//     phase and by the single serial phase otherwise, and assembly merges rings in shard
//     order: the assembled trace is bit-identical at any thread count, and recording consumes
//     no randomness, so enabling it cannot perturb a study.
//   bounded — each shard's ring holds at most `ring_capacity` events; per-kind sampling
//     (`sample_every`) thins high-volume kinds deterministically.
//   loss-accounted — every overwrite increments an explicit drop counter and
//     events_dropped + events_recorded == events_emitted always holds; nothing truncates
//     silently, and the CRC-framed codec refuses corrupted or clipped payloads with DATA_LOSS.

#ifndef MERCURIAL_SRC_TELEMETRY_TRACE_H_
#define MERCURIAL_SRC_TELEMETRY_TRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/common/wire.h"

namespace mercurial {

// Lifecycle event kinds, ordered roughly along the incident pipeline. The enum values are the
// wire encoding: appending is fine, reordering or removal needs a codec version bump.
enum class TraceEventKind : uint8_t {
  kDefectFired = 0,          // a planted defect corrupted a result or raised a machine check
  kSignalEmitted = 1,        // a detection signal left the machine (crash, MCE, screen fail…)
  kSuspicionRaised = 2,      // the report service named the core a suspect
  kInterrogationStart = 3,   // a quarantine interrogation battery began
  kInterrogationVerdict = 4, // the battery finalized (confessed / released / retired)
  kQuarantineAdmit = 5,      // suspect admitted to the quarantine pipeline
  kQuarantineShed = 6,       // suspect shed at admission (pipeline full)
  kQuarantineDrain = 7,      // drain completed or escalated
  kQuarantineForceRelease = 8, // quarantine cut short (guardrail, machine restart)
  kConviction = 9,           // the core was retired as defective
  kRepairPass = 10,          // a retroactive-repair pass ran for a convicted core
  kRepairRetry = 11,         // a repair task was rescheduled for another pass
  kRepairShed = 12,          // suspect epochs were shed or the task abandoned
  kProbationStart = 13,      // weak-evidence conviction: restricted service, not retirement
  kProbationEnd = 14,        // probation resolved (reinstated or escalated to retirement)
  kQuorumVerdict = 15,       // witness quorum judged an interrogation battery
  kRiskRescore = 16,         // adaptive screening scored a due core (admitted or deferred)
};
inline constexpr size_t kTraceEventKindCount = 17;
constexpr size_t EnumCount(TraceEventKind) { return kTraceEventKindCount; }  // wire range check

// Why the event happened. One flat namespace across kinds keeps the wire format to a byte;
// names are scoped by the kind they accompany.
enum class TraceCause : uint8_t {
  kNone = 0,
  // kDefectFired
  kCorruption = 1,        // wrong bits written to a result
  kMachineCheck = 2,      // the defect raised a machine-check instead
  // kSignalEmitted
  kCrashSignal = 3,
  kSanitizerSignal = 4,
  kMachineCheckSignal = 5,
  kAppReport = 6,
  kSilentCorruption = 7,  // corruption escaped with no signal; traced so escapes are visible
  kScreenFail = 8,
  kBackgroundNoise = 9,   // signal from a healthy core (software noise floor)
  // kSuspicionRaised
  kConcentration = 10,    // binomial concentration test fingered the core
  kDirectEvidence = 11,   // screen-fail / MCE bypass
  // kQuarantineAdmit / kQuarantineShed
  kAdmitted = 12,
  kAdmittedDraining = 13,
  kPipelineFull = 14,
  // kQuarantineDrain
  kDrainComplete = 15,
  kDrainEscalated = 16,
  // kInterrogationStart
  kScheduled = 17,
  kRetry = 18,
  // kInterrogationVerdict / kConviction
  kConfessed = 19,
  kReleased = 20,
  kRetiredNoConfession = 21,
  // kQuarantineForceRelease
  kGuardrail = 22,
  kMachineRestart = 23,
  // kRepairPass / kRepairRetry / kRepairShed
  kRepairProgress = 24,
  kRepairDone = 25,
  kBacklogBound = 26,
  kAbandoned = 27,
  // kSignalEmitted (appended)
  kUserReportSignal = 28,  // delayed human suspicion report reached the service
  // kConviction / kProbationStart (appended)
  kWeakEvidence = 29,      // conviction evidence too weak for terminal retirement
  // kProbationEnd (appended)
  kReinstated = 30,          // N clean windows: suspicion cleared, capacity recovered
  kProbationEscalated = 31,  // shadow screen extracted a confession: permanent retirement
  kProbationSignal = 32,     // fresh accusation during probation: permanent retirement
  // kQuorumVerdict (appended)
  kQuorumAgreed = 33,    // the first quorum reached a majority
  kQuorumSplit = 34,     // split vote(s): a wider quorum decided after escalation
  kQuorumFallback = 35,  // still split after max escalations; single tester decided
  // kRiskRescore (appended); detail = (risk_millis << 2) | tier
  kRiskAdmitted = 36,  // admitted under the ops budget; screen runs this tick
  kRiskDeferred = 37,  // budget exhausted; stays due and is re-scored next tick
};
inline constexpr size_t kTraceCauseCount = 38;
constexpr size_t EnumCount(TraceCause) { return kTraceCauseCount; }  // wire range check

const char* TraceEventKindName(TraceEventKind kind);
const char* TraceCauseName(TraceCause cause);

// One recorded lifecycle event. 34 bytes on the wire (see trace.cc); `detail` is
// kind-specific payload (exec-unit ordinal, attempt count, artifacts touched, score bits).
struct TraceEvent {
  int64_t time_seconds = 0;  // sim_time of the tick the event happened in
  uint64_t core = 0;         // fleet-global core index
  uint64_t epoch = 0;        // provenance epoch (tick ordinal)
  TraceEventKind kind = TraceEventKind::kDefectFired;
  TraceCause cause = TraceCause::kNone;
  uint64_t detail = 0;

  SimTime time() const { return SimTime::Seconds(time_seconds); }
};

template <class Wire, RecordOf<TraceEvent> E>
void Walk(Wire& w, E& e) {
  w(e.time_seconds, e.core, e.epoch, e.kind, e.cause, e.detail);
}

bool operator==(const TraceEvent& a, const TraceEvent& b);

// Recorder configuration, part of StudyOptions. Disabled by default: a null recorder costs
// one branch on the rare emit paths and nothing on the hot dispatch loop.
struct TraceOptions {
  bool enabled = false;
  // Max events resident per shard ring. When full, the oldest event is overwritten and
  // events_dropped increments — bounded memory, loud loss.
  size_t ring_capacity = 1 << 16;
  // Record every Nth event of each kind (per shard, deterministic). 1 = record all,
  // 0 = suppress the kind entirely (counted as sampled_out, not dropped).
  std::array<uint32_t, kTraceEventKindCount> sample_every = MakeDefaultSampling();

  static std::array<uint32_t, kTraceEventKindCount> MakeDefaultSampling() {
    std::array<uint32_t, kTraceEventKindCount> all_one{};
    all_one.fill(1);
    return all_one;
  }

  Status Validate() const;
};

// Conservation-accounted event flow: emitted = passed sampling; every emitted event is either
// resident (recorded) or was overwritten (dropped). sampled_out counts events thinned by
// sample_every before they entered the ring.
struct TraceCounters {
  uint64_t events_emitted = 0;
  uint64_t events_recorded = 0;
  uint64_t events_dropped = 0;
  uint64_t events_sampled_out = 0;
};

template <class Wire, RecordOf<TraceCounters> C>
void Walk(Wire& w, C& c) {
  w(c.events_emitted, c.events_recorded, c.events_dropped, c.events_sampled_out);
}

bool operator==(const TraceCounters& a, const TraceCounters& b);

// The assembled, shard-merged trace: events ordered by (time, owning shard, ring order).
struct IncidentTrace {
  uint32_t shards = 0;
  std::vector<TraceEvent> events;
  TraceCounters counters;
};

// Per-core incident flight recorder. Construction mirrors the fleet engine's core partition:
// core c belongs to shard c / ceil(core_count / shards), so during the parallel phase each
// shard thread only ever touches its own ring (no locks, no false sharing — rings are
// cache-line aligned), and the serial phases route freely because they run single-threaded.
class TraceRecorder {
 public:
  TraceRecorder(const TraceOptions& options, size_t core_count, int shards);

  // Stamp subsequent events with (now, epoch). Must be called from the serial phase only —
  // the parallel phase reads the context concurrently.
  void SetTickContext(SimTime now, uint64_t epoch);

  // Record one event for `core` at the current tick context. Thread-safe only under the
  // shard-confinement contract above.
  void Emit(uint64_t core, TraceEventKind kind, TraceCause cause, uint64_t detail = 0);

  // Merge the shard rings into one deterministic trace.
  IncidentTrace Assemble() const;

  const TraceOptions& options() const { return options_; }
  int shards() const { return static_cast<int>(rings_.size()); }
  size_t shard_of(uint64_t core) const;

  // Fleet-wide counter totals (same values Assemble() reports).
  TraceCounters Totals() const;

  // --- Durable-state support (src/durability) ----------------------------------------------
  //
  // Rings can be overwritten within a tick, so a post-hoc capture of the resident events
  // cannot reconstruct intra-tick drops; instead, with the mutation log enabled each ring
  // logs the events it actually inserted (push or overwrite) plus a dirty flag covering every
  // Emit — sampled-out events move seen[]/counters too. DrainTickOps serializes the dirty
  // rings (inserted events + absolute seen[] and counters) and clears the logs; ApplyTickOps
  // replays the inserts mechanically and overwrites the absolutes, so a recovered recorder's
  // Assemble() is bit-identical. Snapshots round-trip the full ring contents. Logging follows
  // the same shard-confinement contract as Emit. Tick context is per-tick wiring
  // (SetTickContext), never persisted.
  void EnableMutationLog(bool enabled) { log_ops_ = enabled; }
  bool HasTickOps() const;
  void DrainTickOps(ByteWriter& w);
  Status ApplyTickOps(ByteReader& r);
  void SaveDurableState(ByteWriter& w) const;
  Status LoadDurableState(ByteReader& r);

 private:
  struct alignas(64) ShardRing {
    std::vector<TraceEvent> slots;  // grows to ring_capacity, then wraps
    size_t head = 0;                // oldest slot once the ring has wrapped
    std::array<uint64_t, kTraceEventKindCount> seen{};  // per-kind sampling counters
    TraceCounters counters;
    std::vector<TraceEvent> tick_log;  // events inserted since the last DrainTickOps
    bool tick_dirty = false;           // any Emit touched this ring since the last drain

    // The snapshot encoding; the tick log is drained into every snapshot, never part of one.
    template <class Wire, RecordOf<ShardRing> R>
    friend void Walk(Wire& w, R& r) {
      w(r.head, r.slots, r.seen, r.counters);
    }
  };

  // One dirty ring's tick-frame entry: the events it inserted, then its absolute seen[] and
  // counters (replay overwrites these after the inserts, so a recovered ring's sampling phase
  // and conservation counters match exactly).
  struct RingDelta {
    uint32_t shard = 0;
    std::vector<TraceEvent> inserted;
    std::array<uint64_t, kTraceEventKindCount> seen{};
    TraceCounters counters;

    template <class Wire, RecordOf<RingDelta> D>
    friend void Walk(Wire& w, D& d) {
      w(d.shard, d.inserted, d.seen, d.counters);
    }
  };

  TraceOptions options_;
  size_t cores_per_shard_ = 1;
  std::vector<ShardRing> rings_;
  int64_t context_time_seconds_ = 0;
  uint64_t context_epoch_ = 0;
  bool log_ops_ = false;
};

// CRC32-framed binary codec. Any single-bit flip, truncation, or trailing garbage in the
// serialized form fails ParseTrace with StatusCode::kDataLoss — mirrored after the checkpoint
// framing in src/mitigate/checkpoint.{h,cc}.
std::vector<uint8_t> SerializeTrace(const IncidentTrace& trace);
StatusOr<IncidentTrace> ParseTrace(const std::vector<uint8_t>& bytes);

// Line-oriented exports for offline analysis: one JSON object per event, or a CSV with a
// header row. Both render kind/cause symbolically.
std::string TraceToJsonl(const IncidentTrace& trace);
std::string TraceToCsv(const IncidentTrace& trace);

// Read-side index over an assembled trace: per-core timelines, time-window slices, and the
// cause-chain walk a post-incident review starts from ("why was core 4711 convicted?").
class TraceQuery {
 public:
  explicit TraceQuery(const IncidentTrace& trace);

  // All events for `core`, in trace order.
  std::vector<TraceEvent> CoreTimeline(uint64_t core) const;

  // All events with begin <= time < end, in trace order.
  std::vector<TraceEvent> TimeWindow(SimTime begin, SimTime end) const;

  // The incident chain behind `core`'s conviction: every event of that core from its first
  // record through its conviction, ending with the kConviction event. Empty if the core was
  // never convicted.
  std::vector<TraceEvent> CauseChain(uint64_t core) const;

  // Cores with a kConviction event, ascending.
  std::vector<uint64_t> ConvictedCores() const;

 private:
  const IncidentTrace* trace_;
  std::map<uint64_t, std::vector<size_t>> by_core_;  // core -> event indices, trace order
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_TELEMETRY_TRACE_H_
