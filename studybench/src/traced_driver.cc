#include "studybench/src/traced_driver.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/active_index.h"
#include "src/detect/mca_log.h"
#include "src/sched/placement.h"
#include "src/substrate/checksum.h"

namespace studybench {

using namespace mercurial;  // NOLINT: the driver touches most of the library's layers

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "traced driver: %s\n", message.c_str());
  std::abort();
}

void Require(const Status& status) {
  if (!status.ok()) {
    Die(status.ToString());
  }
}

struct PendingHumanReport {
  SimTime due;
  Signal signal;
};

// One shard's buffered side effects, applied serially in shard order at the merge barrier.
struct ShardDelta {
  uint64_t work_units = 0;
  std::vector<Signal> signals;
  std::vector<McaRecord> mca_records;
  std::vector<PendingHumanReport> human_reports;
  BlastRadiusLedger ledger;
  ShardScreenOutcome screen;

  void Reset() {
    work_units = 0;
    signals.clear();
    mca_records.clear();
    human_reports.clear();
    ledger.Clear();
    screen = ShardScreenOutcome{};
  }
};

class TracedStudy {
 public:
  TracedStudy(const StudyOptions& options, SpanTracer& tracer);
  void Run(TracedStudyResult& result);

 private:
  using Scope = SpanTracer::Scope;

  void RunProductionShard(SimTime now, size_t shard, Rng& rng, ShardDelta& delta,
                          TracedStudyResult& result);
  void EmitBackgroundNoise(SimTime now, const ShardRange& range, Rng& rng, ShardDelta& delta);
  void HandleSymptom(SimTime now, uint64_t core_index, Symptom symptom, Rng& rng,
                     ShardDelta& delta);
  void Report(const Signal& signal, TracedStudyResult& result);
  void TraceSignal(uint64_t core, TraceCause cause, uint64_t detail = 0) {
    if (trace_ != nullptr) {
      trace_->Emit(core, TraceEventKind::kSignalEmitted, cause, detail);
    }
  }
  void SetupDurability();
  void CrashAndRecover(Rng& crash_rng);
  static Fleet BuildFleet(const FleetOptions& options, SpanTracer& tracer) {
    Scope span(tracer, kFleetBuild);
    return Fleet::Build(options);
  }

  const StudyOptions options_;
  SpanTracer& tracer_;
  Rng rng_;
  Fleet fleet_;
  CoreScheduler scheduler_;
  CeeReportService service_;
  ScreeningOrchestrator screening_;
  QuarantineControlPlane control_plane_;
  BlastRadiusLedger ledger_;
  RepairOrchestrator repair_;
  std::unique_ptr<TraceRecorder> trace_;
  std::vector<WorkloadProfile> placement_profiles_;
  ActiveProductionIndex active_index_;
  McaLog mca_log_;
  std::unique_ptr<DurabilityManager> durability_;
  std::vector<PendingHumanReport> pending_human_reports_;
  std::vector<std::vector<std::unique_ptr<Workload>>> corpora_;
};

RepairOptions AuditOptions(const StudyOptions& options) {
  RepairOptions audit = options.audit;
  audit.epoch_length = options.tick;
  return audit;
}

TracedStudy::TracedStudy(const StudyOptions& options, SpanTracer& tracer)
    : options_(options),
      tracer_(tracer),
      rng_(options.seed),
      fleet_(BuildFleet(options.fleet, tracer)),
      scheduler_(fleet_.core_count(), options.scheduler_costs),
      service_(options.report_service,
               [this](uint64_t machine) {
                 return static_cast<uint32_t>(fleet_.machine(machine).core_count());
               }),
      screening_(options.screening, fleet_.core_count(), rng_.Split(0x5c12)),
      control_plane_(options.control_plane, options.quarantine, rng_.Split(0x9a44),
                     rng_.Split(0xc0a1)),
      repair_(AuditOptions(options), rng_.Split(0xb1a5)),
      mca_log_(options.mca_log_capacity) {
  if (options_.burn_in || !options_.sparse_engine || options_.shards < 2) {
    Die("only the sparse sharded engine without burn-in is followed");
  }
  Require(ValidateScreeningOptions(options_.screening));
  Require(options_.control_plane.Validate());
  Require(options_.audit.Validate());
  Require(options_.trace.Validate());

  for (int k = 0; k < options_.shards; ++k) {
    corpora_.push_back(BuildStandardCorpus(options_.workload));
  }
  if (options_.audit.enabled) {
    repair_.SetExecutorPool(fleet_.core_count(), [this](uint64_t core) {
      return fleet_.IsMercurial(core) && fleet_.core(core).AnyDefectActive();
    });
    control_plane_.set_conviction_hook([this](SimTime now, const QuarantineVerdict& verdict) {
      Scope span(tracer_, kRepairEnqueue);
      repair_.OnConviction(now, verdict.core_global, ledger_);
    });
    control_plane_.set_reinstatement_hook([this](SimTime, uint64_t core) {
      Scope span(tracer_, kRepairEnqueue);
      repair_.OnReinstated(core);
    });
  }
  if (options_.control_plane.probation.enabled) {
    placement_profiles_ = PlacementPlanner::StandardProfiles();
  }
  if (options_.screening.adaptive) {
    screening_.set_risk_probe([this](uint64_t core, SimTime now) {
      const CeeReportService::CoreEvidence peek = service_.PeekEvidence(core, now);
      ScreeningRiskEvidence evidence;
      evidence.report_score = peek.score;
      evidence.direct_score = peek.direct_score;
      evidence.on_probation = scheduler_.state(core) == CoreState::kProbation;
      return evidence;
    });
  }
  if (options_.trace.enabled) {
    trace_ = std::make_unique<TraceRecorder>(options_.trace, fleet_.core_count(),
                                             options_.shards);
    for (uint64_t core = 0; core < fleet_.core_count(); ++core) {
      fleet_.core(core).set_trace_recorder(trace_.get());
    }
    service_.set_trace_recorder(trace_.get());
    screening_.set_trace_recorder(trace_.get());
    control_plane_.set_trace_recorder(trace_.get());
    repair_.set_trace_recorder(trace_.get());
  }
}

void TracedStudy::HandleSymptom(SimTime now, uint64_t core_index, Symptom symptom, Rng& rng,
                                ShardDelta& delta) {
  if (symptom == Symptom::kNone) {
    return;
  }
  const CoreId id = fleet_.core_id(core_index);
  const double delay_rate = 1.0 / static_cast<double>(options_.human_report_mean_delay.seconds());
  auto human_report = [&] {
    const SimTime delay = SimTime::Seconds(static_cast<int64_t>(rng.Exponential(delay_rate)));
    delta.human_reports.push_back(
        {now + delay, Signal{now + delay, id.machine, core_index, SignalType::kUserReport}});
  };
  switch (symptom) {
    case Symptom::kCrash:
      delta.signals.push_back(Signal{now, id.machine, core_index, SignalType::kCrash});
      TraceSignal(core_index, TraceCause::kCrashSignal);
      if (rng.Bernoulli(options_.sanitizer_probability)) {
        delta.signals.push_back(Signal{now, id.machine, core_index, SignalType::kSanitizer});
        TraceSignal(core_index, TraceCause::kSanitizerSignal);
      }
      if (rng.Bernoulli(options_.crash_human_report_probability)) {
        human_report();
      }
      break;
    case Symptom::kMachineCheck: {
      delta.signals.push_back(Signal{now, id.machine, core_index, SignalType::kMachineCheck});
      TraceSignal(core_index, TraceCause::kMachineCheckSignal);
      McaRecord record;
      record.time = now;
      record.machine = id.machine;
      record.core_global = core_index;
      const SimCore& core = fleet_.core(core_index);
      ExecUnit bank = ExecUnit::kIntAlu;
      uint64_t syndrome = 0;
      if (!core.defects().empty()) {
        const Defect& defect = core.defects()[0];
        bank = defect.unit();
        syndrome =
            Mix64(Fnv1a64(defect.spec().label.data(), defect.spec().label.size())) & 0xffff;
      }
      if (rng.Bernoulli(options_.mca_bank_confusion)) {
        bank = static_cast<ExecUnit>(rng.UniformInt(0, kExecUnitCount - 1));
      }
      record.bank = bank;
      record.syndrome = syndrome;
      delta.mca_records.push_back(record);
      break;
    }
    case Symptom::kDetectedImmediately:
    case Symptom::kDetectedLate:
      if (rng.Bernoulli(options_.app_report_probability)) {
        delta.signals.push_back(Signal{now, id.machine, core_index, SignalType::kAppReport});
        TraceSignal(core_index, TraceCause::kAppReport);
      }
      if (symptom == Symptom::kDetectedLate &&
          rng.Bernoulli(options_.silent_human_notice_probability)) {
        human_report();
      }
      break;
    case Symptom::kSilentCorruption:
      TraceSignal(core_index, TraceCause::kSilentCorruption);
      if (rng.Bernoulli(options_.silent_human_notice_probability)) {
        human_report();
      }
      break;
    case Symptom::kNone:
      break;
  }
}

void TracedStudy::RunProductionShard(SimTime now, size_t shard, Rng& rng, ShardDelta& delta,
                                     TracedStudyResult& result) {
  const double busy_units =
      static_cast<double>(options_.work_units_per_core_day) * options_.tick.days();
  const bool audit = options_.audit.enabled;
  const bool probation_enabled = options_.control_plane.probation.enabled;
  const uint64_t epoch = static_cast<uint64_t>(now.seconds() / options_.tick.seconds());
  std::vector<std::unique_ptr<Workload>>& corpus = corpora_[shard];
  for (uint64_t core_index : active_index_.ActiveInShard(shard)) {
    const bool on_probation =
        probation_enabled && scheduler_.state(core_index) == CoreState::kProbation;
    if ((!scheduler_.Schedulable(core_index) && !on_probation) ||
        !fleet_.Installed(core_index, now)) {
      continue;
    }
    SimCore& core = fleet_.core(core_index);
    if (!core.AnyDefectActive()) {
      continue;
    }
    const uint64_t units = rng.Poisson(busy_units);
    if (audit && units > 0) {
      core.set_provenance_epoch(epoch);
    }
    for (uint64_t u = 0; u < units; ++u) {
      const uint64_t pick = rng.UniformInt(0, corpus.size() - 1);
      if (on_probation) {
        const std::vector<ExecUnit>* restricted =
            control_plane_.ProbationRestrictedUnits(core_index);
        if (restricted != nullptr && !restricted->empty() &&
            !TaskSafeOnCore(placement_profiles_[pick].units_exercised, *restricted)) {
          continue;
        }
      }
      WorkloadResult unit;
      {
        Scope span(tracer_, kWorkloadFirst + static_cast<int>(pick));
        unit = corpus[pick]->Run(core, rng);
      }
      ++delta.work_units;
      ++result.units_by_kind[pick];
      result.wrong_outputs += unit.wrong_output ? 1 : 0;
      result.sim_ops += unit.ops;
      HandleSymptom(now, core_index, unit.symptom, rng, delta);
      if (audit) {
        delta.ledger.RecordArtifacts(
            core_index, epoch, ArtifactKindForWorkload(static_cast<WorkloadKind>(pick)),
            /*produced=*/1,
            /*corrupt=*/unit.symptom == Symptom::kSilentCorruption ? 1 : 0);
      }
    }
  }
}

void TracedStudy::EmitBackgroundNoise(SimTime now, const ShardRange& range, Rng& rng,
                                      ShardDelta& delta) {
  if (range.end <= range.begin) {
    return;
  }
  const double expected = static_cast<double>(range.end - range.begin) *
                          options_.background_signal_rate_per_core_day * options_.tick.days();
  const uint64_t events = rng.Poisson(expected);
  for (uint64_t e = 0; e < events; ++e) {
    const uint64_t core_index = range.begin + rng.UniformInt(0, range.end - range.begin - 1);
    if (!fleet_.Installed(core_index, now)) {
      continue;
    }
    const CoreId id = fleet_.core_id(core_index);
    const double draw = rng.NextDouble();
    SignalType type = SignalType::kCrash;
    if (draw < 0.15) {
      type = SignalType::kSanitizer;
    } else if (draw < 0.30) {
      type = SignalType::kAppReport;
    }
    delta.signals.push_back(Signal{now, id.machine, core_index, type});
    TraceSignal(core_index, TraceCause::kBackgroundNoise, static_cast<uint64_t>(type));
  }
}

void TracedStudy::Report(const Signal& signal, TracedStudyResult& result) {
  if (options_.audit.enabled) {
    ledger_.NoteSignal(signal.core_global, signal.time);
  }
  ++result.signals_reported;
  Scope span(tracer_, kControlPlaneReport);
  control_plane_.Report(signal, service_);
}

void TracedStudy::SetupDurability() {
  DurabilityManager::Options journal_options;
  journal_options.snapshot_every = options_.durability.snapshot_every;
  durability_ = std::make_unique<DurabilityManager>(journal_options);
  ledger_.EnableMutationLog(true);
  if (trace_ != nullptr) {
    trace_->EnableMutationLog(true);
  }
  durability_->RegisterUnit(
      "control_plane", [this](ByteWriter& w) { control_plane_.SaveDurableState(w); },
      [this](ByteReader& r) { return control_plane_.LoadDurableState(r); });
  durability_->RegisterUnit(
      "repair", [this](ByteWriter& w) { repair_.SaveDurableState(w); },
      [this](ByteReader& r) { return repair_.LoadDurableState(r); });
  durability_->RegisterDeltaUnit(
      "ledger", [this](ByteWriter& w) { ledger_.SaveDurableState(w); },
      [this](ByteReader& r) { return ledger_.LoadDurableState(r); },
      [this]() { return ledger_.HasTickOps(); },
      [this](ByteWriter& w) { ledger_.DrainTickOps(w); },
      [this](ByteReader& r) { return ledger_.ApplyTickOps(r); });
  if (trace_ != nullptr) {
    durability_->RegisterDeltaUnit(
        "trace", [this](ByteWriter& w) { trace_->SaveDurableState(w); },
        [this](ByteReader& r) { return trace_->LoadDurableState(r); },
        [this]() { return trace_->HasTickOps(); },
        [this](ByteWriter& w) { trace_->DrainTickOps(w); },
        [this](ByteReader& r) { return trace_->ApplyTickOps(r); });
  }
  // The initial snapshot counts as journal append time (it lands in the first tick's sample).
  Scope span(tracer_, kJournalAppend);
  Require(durability_->Start(0, options_.durability.manifest));
}

void TracedStudy::CrashAndRecover(Rng& crash_rng) {
  const ChaosOptions& chaos = options_.control_plane.chaos;
  if (chaos.journal_torn_tail > 0.0 && crash_rng.Bernoulli(chaos.journal_torn_tail)) {
    const size_t tail = durability_->size() - durability_->mutable_tail_start();
    if (tail > 0) {
      durability_->TearTail(
          1 + static_cast<size_t>(crash_rng.NextDouble() * static_cast<double>(tail - 1)));
    }
  }
  if (chaos.journal_bit_flip > 0.0 && crash_rng.Bernoulli(chaos.journal_bit_flip)) {
    const size_t tail = durability_->size() - durability_->mutable_tail_start();
    if (tail > 0) {
      durability_->FlipBit(durability_->mutable_tail_start() +
                               static_cast<size_t>(crash_rng.NextDouble() *
                                                   static_cast<double>(tail)),
                           crash_rng.UniformInt(0, 7));
    }
  }
  Scope span(tracer_, kJournalRecover);
  StatusOr<DurabilityManager::RecoveryResult> recovered = durability_->Recover();
  Require(recovered.status());
  if (!recovered->exact) {
    uint64_t released = 0;
    uint64_t reinstated = 0;
    uint64_t dropped_pending = 0;
    uint64_t dropped_probation = 0;
    control_plane_.ReconcileWithFleet(scheduler_, &released, &reinstated, &dropped_pending,
                                      &dropped_probation);
  }
}

void TracedStudy::Run(TracedStudyResult& result) {
  Scope study(tracer_, kStudy);
  const int shards = options_.shards;
  const std::vector<ShardRange> ranges = PartitionCores(fleet_.core_count(), shards);
  SimClock clock;
  {
    Scope span(tracer_, kFleetSetAges);
    fleet_.SetAges(clock.now());
  }
  {
    std::vector<std::pair<uint64_t, uint64_t>> spans;
    for (const ShardRange& range : ranges) {
      spans.emplace_back(range.begin, range.end);
    }
    Scope span(tracer_, kActiveIndex);
    screening_.EnableSparse(options_.tick, spans);
    active_index_.Build(fleet_, ranges);
    scheduler_.set_retirement_listener([this](uint64_t core) { active_index_.Retire(core); });
  }
  if (options_.durability.enabled) {
    SetupDurability();
  }

  std::vector<ShardDelta> deltas(static_cast<size_t>(shards));
  const int64_t ticks = options_.duration.seconds() / options_.tick.seconds();
  for (int64_t t = 0; t < ticks; ++t) {
    clock.Advance(options_.tick);
    const SimTime now = clock.now();
    {
      Scope span(tracer_, kFleetSetAges);
      fleet_.SetAges(now);
    }
    if (trace_ != nullptr) {
      trace_->SetTickContext(now, static_cast<uint64_t>(now.seconds() / options_.tick.seconds()));
    }
    {
      Scope span(tracer_, kActiveIndex);
      active_index_.Advance(now);
    }
    if (screening_.adaptive()) {
      Scope span(tracer_, kScreeningPlan);
      screening_.PlanAdaptiveTick(now, options_.tick, fleet_, scheduler_);
    }

    for (size_t k = 0; k < deltas.size(); ++k) {
      ShardDelta& delta = deltas[k];
      delta.Reset();
      Rng production_rng(DeriveStreamSeed(options_.seed ^ kProductionStreamSalt, k,
                                          static_cast<uint64_t>(t)));
      RunProductionShard(now, k, production_rng, delta, result);
      EmitBackgroundNoise(now, ranges[k], production_rng, delta);
      Rng screening_rng(DeriveStreamSeed(options_.seed ^ kScreeningStreamSalt, k,
                                         static_cast<uint64_t>(t)));
      Scope span(tracer_, kScreeningTick);
      delta.screen = screening_.TickShard(now, options_.tick, ranges[k].begin, ranges[k].end,
                                          fleet_, scheduler_, screening_rng);
    }

    // Merge barrier, in shard order.
    for (ShardDelta& delta : deltas) {
      result.work_units += delta.work_units;
      if (options_.audit.enabled) {
        ledger_.MergeFrom(delta.ledger);
      }
      for (const Signal& signal : delta.signals) {
        Report(signal, result);
      }
      if (!delta.mca_records.empty()) {
        Scope span(tracer_, kMcaLog);
        for (const McaRecord& record : delta.mca_records) {
          mca_log_.Append(record);
        }
      }
      pending_human_reports_.insert(pending_human_reports_.end(), delta.human_reports.begin(),
                                    delta.human_reports.end());
    }
    auto due = std::partition(pending_human_reports_.begin(), pending_human_reports_.end(),
                              [now](const PendingHumanReport& r) { return r.due > now; });
    for (auto it = due; it != pending_human_reports_.end(); ++it) {
      Report(it->signal, result);
      TraceSignal(it->signal.core_global, TraceCause::kUserReportSignal);
    }
    pending_human_reports_.erase(due, pending_human_reports_.end());
    for (const ShardDelta& delta : deltas) {
      const ShardScreenOutcome& outcome = delta.screen;
      {
        Scope span(tracer_, kSchedulerAccounting);
        for (size_t i = 0; i < outcome.offline_drained.size(); ++i) {
          scheduler_.Drain(outcome.offline_drained[i]);
          if (!outcome.drained_tiers.empty()) {
            scheduler_.NoteScreenDrainTier(outcome.drained_tiers[i]);
          }
          scheduler_.Release(outcome.offline_drained[i]);
        }
      }
      for (const Signal& signal : outcome.failures) {
        Report(signal, result);
      }
      result.screening.Merge(outcome.stats);
    }

    {
      Scope span(tracer_, kControlPlaneTick);
      control_plane_.Tick(now, options_.tick, fleet_, scheduler_, service_, &screening_);
    }
    result.pending_tick_sum += control_plane_.pending_count();
    if (options_.audit.enabled) {
      Scope span(tracer_, kRepairTick);
      repair_.Tick(now);
    }
    {
      Scope span(tracer_, kSchedulerAccounting);
      scheduler_.AccumulateStranding(options_.tick);
    }
    if (durability_ != nullptr) {
      {
        Scope span(tracer_, kJournalAppend);
        durability_->EndTick(static_cast<uint64_t>(t) + 1);
      }
      const ChaosOptions& chaos = options_.control_plane.chaos;
      if (chaos.controller_enabled()) {
        Rng crash_rng(DeriveStreamSeed(options_.seed ^ kControllerCrashSalt, 0,
                                       static_cast<uint64_t>(t)));
        bool crash_due = false;
        if (chaos.controller_crash_every_ticks > 0) {
          crash_due = (static_cast<uint64_t>(t) + 1) %
                          static_cast<uint64_t>(chaos.controller_crash_every_ticks) ==
                      0;
        } else {
          crash_due = crash_rng.Bernoulli(
              1.0 - std::exp(-chaos.controller_crash_per_day * options_.tick.days()));
        }
        if (crash_due) {
          CrashAndRecover(crash_rng);
        }
      }
    }
    tracer_.EndTick();
    ++result.ticks;
  }

  result.wheel = screening_.wheel_stats();
  if (options_.audit.enabled) {
    Scope span(tracer_, kRepairFinalize);
    repair_.FinalizeAccounting(ledger_);
  }
  if (trace_ != nullptr) {
    Scope span(tracer_, kTraceAssemble);
    result.trace = trace_->Assemble().counters;
  }
  result.control_plane = control_plane_.stats();
  result.quarantine = control_plane_.manager().stats();
  result.repair = repair_.stats();
  if (durability_ != nullptr) {
    result.journal = durability_->stats();
  }
}

}  // namespace

void AddTracedLayers(SpanTracer& tracer) {
  for (const char* name :
       {"core.setup", "fleet.build", "core.study", "fleet.set_ages", "core.active_index",
        "detect.screening.plan", "detect.screening.tick", "detect.control_plane.report",
        "detect.control_plane.tick", "mitigate.repair.enqueue", "mitigate.repair.tick",
        "sched.accounting", "detect.mca_log", "durability.journal.append",
        "durability.journal.recover", "telemetry.trace.assemble", "mitigate.repair.finalize"}) {
    tracer.AddLayer(name);
  }
  for (int kind = 0; kind < kWorkloadKindCount; ++kind) {
    tracer.AddLayer(std::string("workload.") + WorkloadKindName(static_cast<WorkloadKind>(kind)));
  }
}

TracedStudyResult RunTracedStudy(const StudyOptions& options) {
  TracedStudyResult result;
  SpanTracer& tracer = result.tracer;
  AddTracedLayers(tracer);
  std::unique_ptr<TracedStudy> study;
  {
    SpanTracer::Scope setup(tracer, kSetup);
    study = std::make_unique<TracedStudy>(options, tracer);
  }
  study->Run(result);
  return result;
}

}  // namespace studybench
