// Retroactive repair after core conviction (§4, §6; Spanner anecdote).
//
// Quarantining a convicted core bounds its future damage; this orchestrator goes after the
// damage already done. On conviction it computes the core's suspect set — every (core, epoch)
// artifact batch recorded in the BlastRadiusLedger back to the estimated defect onset — and
// drives a repair pipeline over it:
//
//   * checksummed store writes and checkpoint payloads are re-verified against their integrity
//     framing; corrupt ones are regenerated by re-executing the producing work,
//   * replicated-log epochs are majority-repaired across replicas (the log's own redundancy
//     masks a single bad executor),
//   * plain workload outputs can only be re-executed on a healthy core and compared.
//
// The pipeline is explicitly *budgeted*: at most `repair_budget_per_tick` artifacts are
// touched per tick, so repair load cannot starve production (DESIGN.md, "repair must not
// outrun detection"). Work that does not fit waits; when the total backlog exceeds
// `max_backlog_artifacts`, the lowest-risk epochs (the oldest, furthest from the conviction
// evidence) are shed with explicit accounting — never silently dropped. Failed passes retry
// with exponential backoff + jitter, bounded by `max_attempts`.
//
// Repair is itself fleet software, so its failure modes are injectable through the shared
// ChaosInjector (detect/chaos.h): re-verifications that miss, repair passes landing on another
// defective core (also modeled organically: executors are drawn from the real fleet, which
// still contains unconvicted mercurial cores), and passes preempted mid-epoch.
//
// Determinism: all orchestrator randomness (executor draws, backoff jitter, chaos) comes from
// one dedicated stream handed in at construction, and every entry point runs in the fleet
// engine's serial phase — repair scheduling can never perturb study streams, and an
// audit-enabled study is bit-identical for any thread count.

#ifndef MERCURIAL_SRC_MITIGATE_REPAIR_ORCHESTRATOR_H_
#define MERCURIAL_SRC_MITIGATE_REPAIR_ORCHESTRATOR_H_

#include <cstdint>
#include <functional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/detect/chaos.h"
#include "src/mitigate/blast_radius.h"

namespace mercurial {

class TraceRecorder;
enum class TraceEventKind : uint8_t;
enum class TraceCause : uint8_t;

struct RepairOptions {
  // Master switch for the whole audit/repair subsystem. Off by default: a study with auditing
  // disabled records nothing, repairs nothing, and is bit-identical to the pre-audit engine.
  bool enabled = false;

  // Length of one provenance epoch; the fleet study sets this to its tick.
  SimTime epoch_length = SimTime::Days(1);

  // Max artifacts touched (re-verified / re-executed) per tick. Bounds repair load.
  uint64_t repair_budget_per_tick = 4096;

  // Backlog bound: when the queued suspect artifacts exceed this, lowest-risk epochs are shed
  // (with accounting) until the backlog fits.
  uint64_t max_backlog_artifacts = uint64_t{1} << 20;

  // Repair passes per (core, epoch) task before it is abandoned. A pass fails when its
  // executor turns out defective or chaos preempts it.
  int max_attempts = 3;
  SimTime retry_backoff = SimTime::Days(1);
  double retry_jitter = 0.25;  // fraction of the backoff, in [0, 1]

  // Defect-onset estimate: suspicion started at (first recorded signal - onset_margin), but
  // never further back than max_lookback before conviction. Epochs older than the estimate
  // are outside the suspect set (their corruption, if any, stays at rest — the accounting
  // makes that visible).
  SimTime onset_margin = SimTime::Days(14);
  SimTime max_lookback = SimTime::Days(180);

  // Repair-path fault injection; only the repair_* knobs are consulted here.
  ChaosOptions chaos;

  Status Validate() const;
};

struct RepairStats {
  uint64_t convictions = 0;
  uint64_t suspect_epochs = 0;       // (core, epoch) tasks enqueued
  uint64_t suspect_artifacts = 0;    // artifacts in enqueued tasks
  uint64_t artifacts_reverified = 0; // integrity re-checks (stores, checkpoints, log digests)
  uint64_t artifacts_reexecuted = 0; // work re-run on a repair executor
  uint64_t repair_ops = 0;           // artifact-touch cost units charged to the pipeline
  uint64_t retries_scheduled = 0;
  uint64_t defective_executor_retries = 0;  // passes voided by a defective repair executor
  uint64_t tasks_abandoned = 0;      // tasks that exhausted max_attempts
  uint64_t epochs_shed = 0;          // tasks shed by the backlog bound
  uint64_t artifacts_shed = 0;
  // Tasks cancelled because the conviction that enqueued them was withdrawn on reinstatement:
  // their artifacts need no repair pass (the core was cleared). Any corruption they carried
  // falls into still_at_rest at conservation closure, not into shed.
  uint64_t reinstated_epochs_cancelled = 0;
  uint64_t reinstated_artifacts_cancelled = 0;
  uint64_t backlog_peak = 0;         // max queued suspect artifacts ever observed
  // Ground-truth escape accounting. Every corrupt artifact the ledger recorded ends up in
  // exactly one of: repaired, shed, or still_at_rest (conservation; finalized by
  // FinalizeAccounting).
  uint64_t corruptions_found = 0;    // detected by a repair pass (subset became repaired)
  uint64_t corruptions_repaired = 0;
  uint64_t corruptions_shed = 0;
  uint64_t corruptions_missed = 0;     // chaos-failed re-verification let them stay at rest
  uint64_t corruptions_abandoned = 0;  // left at rest when their task was abandoned
  uint64_t corruptions_still_at_rest = 0;
  ChaosStats chaos;
};

// A RepairStats block's wire walk (src/common/wire.h).
template <class Wire, RecordOf<RepairStats> S>
void Walk(Wire& w, S& s) {
  w(s.convictions, s.suspect_epochs, s.suspect_artifacts, s.artifacts_reverified,
    s.artifacts_reexecuted, s.repair_ops, s.retries_scheduled, s.defective_executor_retries,
    s.tasks_abandoned, s.epochs_shed, s.artifacts_shed, s.reinstated_epochs_cancelled,
    s.reinstated_artifacts_cancelled, s.backlog_peak, s.corruptions_found,
    s.corruptions_repaired, s.corruptions_shed, s.corruptions_missed, s.corruptions_abandoned,
    s.corruptions_still_at_rest, s.chaos);
}

class RepairOrchestrator {
 public:
  // `rng` must be a dedicated stream (the study splits it off the master seed); the chaos
  // injector gets its own child of it.
  RepairOrchestrator(RepairOptions options, Rng rng);

  // Where repair executors come from: cores [0, core_count) with `defective(core)` answering
  // "would re-executing on this core corrupt the result right now" (ground truth through the
  // fleet; the pipeline only observes the resulting bad repairs). Without a pool, executors
  // are assumed healthy except when chaos forces a defective one.
  void SetExecutorPool(uint64_t core_count, std::function<bool(uint64_t)> defective);

  // Conviction hook: computes the suspect set for `core_global` from the ledger and enqueues
  // repair tasks, shedding lowest-risk epochs if the backlog bound is exceeded.
  //
  // A core can be convicted more than once (probation entry is a provisional conviction; a
  // reinstated core can be re-suspected and convicted again). Each (core, epoch) batch is
  // enqueued at most ONCE across all of a core's convictions: the first sweep already
  // classified whatever it repaired or shed, so re-enqueueing the full ledger counts would
  // classify the same corrupt artifacts twice and break conservation
  // (corruptions_repaired + corruptions_shed <= corrupt_recorded). A re-conviction therefore
  // only adds epochs produced since the prior sweep (e.g. restricted work run on probation).
  void OnConviction(SimTime now, uint64_t core_global, const BlastRadiusLedger& ledger);

  // Reinstatement hook: the conviction that enqueued `core_global`'s repair tasks was
  // withdrawn (probation cleared), so its still-queued passes are cancelled with accounting.
  // Passes already run stay run — repair work, like testimony, is not un-done retroactively.
  void OnReinstated(uint64_t core_global);

  // One serial repair tick: runs due tasks highest-risk-first under the per-tick budget.
  void Tick(SimTime now);

  // Classifies all remaining ledger corruption as still-at-rest (conservation closure). Call
  // once, after the last Tick.
  void FinalizeAccounting(const BlastRadiusLedger& ledger);

  uint64_t backlog_artifacts() const { return backlog_artifacts_; }
  size_t queued_tasks() const { return tasks_.size(); }
  const RepairStats& stats() const { return stats_; }

  // Incident flight recorder hook: repair lifecycle events (pass scheduled on conviction,
  // pass progress/done, retries, backlog sheds, abandons). All entry points run in the serial
  // phase, so emission needs no shard routing beyond the core index itself.
  void set_trace_recorder(TraceRecorder* recorder) { trace_ = recorder; }

  // Durable-state round trip for the write-ahead journal (src/durability): the repair RNG
  // cursor, nested chaos state, all counters, the task queue, the once-ever enqueue dedup
  // (serialized in sorted core/epoch order for deterministic bytes; lookup-only, so rebuilt
  // hash order is behavior-invisible), and the backlog gauge. Options, the executor pool, and
  // the trace recorder are wiring, reconstructed by the owning study.
  void SaveDurableState(ByteWriter& w) const;
  Status LoadDurableState(ByteReader& r);

 private:
  struct Task {
    uint64_t core_global = 0;
    uint64_t epoch = 0;
    ArtifactCounts remaining[kArtifactKindCount];
    int attempts = 0;
    SimTime next_attempt;

    uint64_t remaining_produced() const;
    uint64_t remaining_corrupt() const;

    template <class Wire, RecordOf<Task> T>
    friend void Walk(Wire& w, T& t) {
      w(t.core_global, t.epoch, t.remaining, t.attempts, t.next_attempt);
    }
  };

  // The durable state in wire order: SaveDurableState writes it, LoadDurableState restores it
  // whole (nested chaos state included) or, on a refused payload, not at all.
  template <class Self>
  static auto DurableFields(Self& self) {
    return std::tie(self.rng_, self.stats_, self.backlog_artifacts_, self.tasks_,
                    self.enqueued_epochs_, self.chaos_);
  }

  // Runs one pass over `task` with at most `budget` artifact touches. Returns the number of
  // touches consumed. Sets *done when the task has no remaining artifacts and *retry when the
  // pass failed and the task needs a backed-off retry.
  uint64_t RunPass(SimTime now, Task& task, uint64_t budget, bool* done, bool* retry);

  void ScheduleRetry(SimTime now, Task& task);
  void AbandonTask(Task& task);
  void ShedToBacklogBound();
  SimTime BackoffDelay(int attempts);
  bool DrawExecutorTainted();
  void Trace(uint64_t core, TraceEventKind kind, TraceCause cause, uint64_t detail = 0);

  RepairOptions options_;
  Rng rng_;
  ChaosInjector chaos_;
  RepairStats stats_;
  std::vector<Task> tasks_;
  // Epochs ever enqueued per core — the once-ever dedup for repeat convictions (see
  // OnConviction). Reinstatement cancellation does NOT remove entries: the cancelled
  // remainder went back to still-at-rest, and re-enqueueing full epoch counts later would
  // double-classify the portion the first sweep already repaired.
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> enqueued_epochs_;
  uint64_t backlog_artifacts_ = 0;
  uint64_t core_count_ = 0;
  std::function<bool(uint64_t)> defective_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_MITIGATE_REPAIR_ORCHESTRATOR_H_
