#include "src/detect/control_plane.h"

#include <algorithm>
#include <cmath>

#include "src/telemetry/trace.h"

namespace mercurial {

Status ControlPlaneOptions::Validate() const {
  if (max_retries < 0) {
    return InvalidArgumentError("max_retries must be >= 0");
  }
  if (max_retries > 0 && retry_backoff.seconds() <= 0) {
    return InvalidArgumentError("retry_backoff must be positive when retries are enabled");
  }
  if (!(retry_jitter >= 0.0 && retry_jitter <= 1.0)) {
    return InvalidArgumentError("retry_jitter must be in [0, 1]");
  }
  if (drain_latency.seconds() < 0 || drain_timeout.seconds() < 0) {
    return InvalidArgumentError("drain_latency and drain_timeout must be >= 0");
  }
  if (!(quarantine_budget_fraction > 0.0 && quarantine_budget_fraction <= 1.0)) {
    return InvalidArgumentError("quarantine_budget_fraction must be in (0, 1]");
  }
  if (throttle_defer.seconds() < 0) {
    return InvalidArgumentError("throttle_defer must be >= 0");
  }
  if (Status s = quorum.Validate(); !s.ok()) {
    return s;
  }
  if (Status s = probation.Validate(); !s.ok()) {
    return s;
  }
  return chaos.Validate();
}

QuarantineControlPlane::QuarantineControlPlane(ControlPlaneOptions options,
                                               QuarantinePolicy policy, Rng manager_rng,
                                               Rng control_rng)
    : options_(options),
      manager_(policy, manager_rng),
      control_rng_(control_rng),
      chaos_(options.chaos, control_rng.Split(0xc4a05)),
      quorum_(options.quorum, control_rng.Split(0x9b0a7)) {}

void QuarantineControlPlane::Report(const Signal& signal, CeeReportService& service) {
  if (!chaos_.enabled()) {
    service.Report(signal);
    return;
  }
  std::vector<Signal> deliver;
  chaos_.InjectReport(signal, deliver);
  for (const Signal& delivered : deliver) {
    service.Report(delivered);
  }
}

void QuarantineControlPlane::Trace(uint64_t core, TraceEventKind kind, TraceCause cause,
                                   uint64_t detail) {
  if (trace_ != nullptr) {
    trace_->Emit(core, kind, cause, detail);
  }
}

bool QuarantineControlPlane::IsPending(uint64_t core_global) const {
  for (const Pending& pending : pending_) {
    if (pending.core_global == core_global) {
      return true;
    }
  }
  return false;
}

SimTime QuarantineControlPlane::BackoffDelay(int attempts) {
  // Attempt k's retry waits base * 2^(k-1), jittered multiplicatively in [1-j, 1+j] so
  // synchronized suspects de-correlate (classic retry-storm avoidance), capped at 2^20 ticks
  // worth of shift to keep the shift defined.
  const int shift = std::min(attempts - 1, 20);
  double delay = static_cast<double>(options_.retry_backoff.seconds()) *
                 static_cast<double>(uint64_t{1} << shift);
  if (options_.retry_jitter > 0.0) {
    delay *= 1.0 + options_.retry_jitter * (2.0 * control_rng_.NextDouble() - 1.0);
  }
  return SimTime::Seconds(std::max<int64_t>(1, static_cast<int64_t>(delay)));
}

void QuarantineControlPlane::AdmitSuspects(SimTime now, const std::vector<SuspectCore>& suspects,
                                           Fleet& fleet, CoreScheduler& scheduler,
                                           CeeReportService& service,
                                           std::vector<QuarantineVerdict>& verdicts) {
  for (const SuspectCore& suspect : suspects) {
    const uint64_t core = suspect.core_global;
    if (scheduler.state(core) == CoreState::kRetired ||
        scheduler.state(core) == CoreState::kQuarantined) {
      continue;  // already isolated: a repeat accusation changes nothing
    }
    if (scheduler.state(core) == CoreState::kProbation) {
      // A fresh accusation while the conviction is held in appeal: the probation fails and
      // escalates straight to permanent retirement — no second interrogation, the core already
      // used its second chance.
      manager_.RecordAccusation(core);
      for (auto it = probation_.begin(); it != probation_.end(); ++it) {
        if (it->core_global == core) {
          Trace(core, TraceEventKind::kProbationEnd, TraceCause::kProbationSignal,
                static_cast<uint64_t>(it->windows_clean));
          probation_.erase(it);
          break;
        }
      }
      verdicts.push_back(
          manager_.EscalateProbation(now, core, /*confessed=*/false, fleet, scheduler, service));
      continue;
    }
    if (IsPending(core) || scheduler.state(core) != CoreState::kActive) {
      continue;  // already in the pipeline (e.g. mid-drain); not a new accusation
    }
    if (options_.max_pending > 0 && pending_.size() >= options_.max_pending) {
      // Backpressure: refuse admission. The report mass is kept, so the suspect
      // re-candidates once the pipeline has room — degradation is delay, not loss.
      ++stats_.suspects_shed;
      Trace(core, TraceEventKind::kQuarantineShed, TraceCause::kPipelineFull, pending_.size());
      continue;
    }
    manager_.RecordAccusation(core);
    ++stats_.suspects_admitted;
    Trace(core, TraceEventKind::kQuarantineAdmit,
          options_.drain_latency.seconds() > 0 ? TraceCause::kAdmittedDraining
                                               : TraceCause::kAdmitted,
          pending_.size());

    Pending pending;
    pending.core_global = core;
    pending.machine = suspect.machine;
    pending.score = suspect.score;
    pending.next_attempt = now;
    if (options_.drain_latency.seconds() > 0) {
      // Graceful drain takes time: the core leaves the schedule now but is only
      // interrogation-eligible once vacated. Completion time is jittered per core.
      scheduler.Drain(core);
      pending.draining = true;
      const double sampled = static_cast<double>(options_.drain_latency.seconds()) *
                             (1.0 + control_rng_.NextDouble());
      pending.drain_done = now + SimTime::Seconds(static_cast<int64_t>(sampled));
    } else {
      scheduler.Quarantine(core);
    }
    pending_.push_back(pending);
    stats_.queue_peak = std::max<uint64_t>(stats_.queue_peak, pending_.size());
  }
}

void QuarantineControlPlane::AdvanceDrains(SimTime now, CoreScheduler& scheduler) {
  if (options_.drain_latency.seconds() <= 0) {
    return;
  }
  for (Pending& pending : pending_) {
    if (!pending.draining) {
      continue;
    }
    const bool timed_out =
        options_.drain_timeout.seconds() > 0 && pending.drain_done - pending.next_attempt >
        options_.drain_timeout && now >= pending.next_attempt + options_.drain_timeout;
    if (pending.drain_done <= now) {
      scheduler.Quarantine(pending.core_global);
      pending.draining = false;
      pending.next_attempt = now;
      Trace(pending.core_global, TraceEventKind::kQuarantineDrain, TraceCause::kDrainComplete);
    } else if (timed_out) {
      // The graceful drain overran its deadline: escalate to core surprise removal (§6.1,
      // Shalev et al.) — immediate, loses in-flight work — then quarantine.
      scheduler.SurpriseRemove(pending.core_global);
      scheduler.Quarantine(pending.core_global);
      ++stats_.drain_escalations;
      pending.draining = false;
      pending.next_attempt = now;
      Trace(pending.core_global, TraceEventKind::kQuarantineDrain, TraceCause::kDrainEscalated);
    }
  }
}

void QuarantineControlPlane::RunInterrogations(SimTime now, Fleet& fleet,
                                               CoreScheduler& scheduler,
                                               CeeReportService& service,
                                               std::vector<QuarantineVerdict>& verdicts) {
  uint64_t started = 0;
  std::vector<Pending> still_pending;
  still_pending.reserve(pending_.size());
  for (size_t i = 0; i < pending_.size(); ++i) {
    Pending& pending = pending_[i];
    if (pending.draining || pending.next_attempt > now ||
        (options_.max_interrogations_per_tick > 0 &&
         started >= options_.max_interrogations_per_tick)) {
      still_pending.push_back(pending);
      continue;
    }
    ++started;
    ++pending.attempts;
    if (pending.attempts > 1) {
      ++stats_.retry_interrogations;
    }
    Trace(pending.core_global, TraceEventKind::kInterrogationStart,
          pending.attempts > 1 ? TraceCause::kRetry : TraceCause::kScheduled,
          static_cast<uint64_t>(pending.attempts));
    QuarantineManager::Interrogation result;
    double fraction_run = 0.0;
    const bool aborted = chaos_.AbortInterrogation(&fraction_run);
    if (aborted) {
      result = manager_.AbortedInterrogation(fraction_run);
    } else {
      result = manager_.Interrogate(pending.core_global, fleet);
    }
    QuorumVerdict quorum_verdict;
    bool quorum_judged = false;
    if (!aborted && result.ran) {
      if (quorum_.enabled()) {
        // The tester's verdict is testimony, not truth: K witness cores re-judge the battery
        // and the majority decides. Chaos faults (lying witness, mid-vote crash) land on the
        // witnesses here instead of on the lone tester below.
        quorum_verdict = quorum_.Judge(pending.core_global, result.confessed, fleet, scheduler,
                                       chaos_);
        quorum_judged = true;
        Trace(pending.core_global, TraceEventKind::kQuorumVerdict,
              quorum_verdict.fell_back        ? TraceCause::kQuorumFallback
              : quorum_verdict.escalations > 0 ? TraceCause::kQuorumSplit
                                               : TraceCause::kQuorumAgreed,
              PackQuorumDetail(quorum_verdict));
        if (quorum_verdict.confessed != result.confessed) {
          // The majority overrides the tester. A quorum-invented confession names no failed
          // units (witnesses corroborate the outcome, not the unit breakdown); an overturned
          // one withdraws them.
          result.confessed = quorum_verdict.confessed;
          if (!quorum_verdict.confessed) {
            result.failed_units.clear();
          }
        }
      } else if (chaos_.LyingWitness()) {
        // Legacy single-tester path under testimony chaos: with no quorum to out-vote it, the
        // lone tester's flipped verdict IS the verdict. This is the false-conviction source
        // the quorum exists to suppress.
        result.confessed = !result.confessed;
        if (!result.confessed) {
          result.failed_units.clear();
        }
      }
    }
    if (result.ran && !result.confessed && pending.attempts <= options_.max_retries) {
      // Still suspicious, didn't confess (or the run was cut short): keep it quarantined and
      // come back after an exponentially-backed-off, jittered delay.
      pending.next_attempt = now + BackoffDelay(pending.attempts);
      ++stats_.retries_scheduled;
      still_pending.push_back(pending);
      continue;
    }
    if (options_.probation.enabled && manager_.WouldRetire(pending.core_global, result)) {
      // The conviction is in; ask how strong the evidence is. Weak: no confession at all
      // (recidivism / suspicion-only), a witness majority thinner than strong_agreement
      // (fallback verdicts carry agreement 0.5), or a confession that needed too many
      // attempts to reproduce. Weak convictions are held open in probation.
      bool weak = !result.confessed;
      if (quorum_judged && quorum_verdict.agreement < options_.quorum.strong_agreement) {
        weak = true;
      }
      if (options_.probation.weak_after_attempts > 0 &&
          pending.attempts > options_.probation.weak_after_attempts) {
        weak = true;
      }
      if (weak) {
        QuarantineVerdict verdict =
            manager_.BeginProbation(pending.core_global, result, scheduler, service);
        Trace(pending.core_global, TraceEventKind::kInterrogationVerdict,
              TraceCause::kWeakEvidence, static_cast<uint64_t>(pending.attempts));
        // The conviction event still precedes the hook — the blast-radius subsystem treats a
        // probation entry as a (provisional) conviction; reinstatement later cancels it.
        Trace(pending.core_global, TraceEventKind::kConviction, TraceCause::kWeakEvidence,
              verdict.failed_units.size());
        Trace(pending.core_global, TraceEventKind::kProbationStart, TraceCause::kWeakEvidence,
              verdict.failed_units.size());
        if (conviction_hook_) {
          conviction_hook_(now, verdict);
        }
        ProbationRecord record;
        record.core_global = pending.core_global;
        record.machine = pending.machine;
        record.entered = now;
        record.next_window = now + options_.probation.window;
        record.restricted_units = verdict.failed_units;
        probation_.push_back(std::move(record));
        verdicts.push_back(verdict);
        continue;
      }
    }
    QuarantineVerdict verdict =
        manager_.Finalize(now, pending.core_global, result, fleet, scheduler, service);
    const TraceCause outcome = verdict.retired
                                   ? (verdict.confessed ? TraceCause::kConfessed
                                                        : TraceCause::kRetiredNoConfession)
                                   : TraceCause::kReleased;
    Trace(pending.core_global, TraceEventKind::kInterrogationVerdict, outcome,
          static_cast<uint64_t>(pending.attempts));
    if (verdict.retired) {
      // The conviction event precedes the hook so repair events it triggers sort after it.
      Trace(pending.core_global, TraceEventKind::kConviction, outcome,
            verdict.failed_units.size());
      if (conviction_hook_) {
        conviction_hook_(now, verdict);
      }
    }
    verdicts.push_back(verdict);
  }
  pending_ = std::move(still_pending);
}

const std::vector<ExecUnit>* QuarantineControlPlane::ProbationRestrictedUnits(
    uint64_t core_global) const {
  for (const ProbationRecord& record : probation_) {
    if (record.core_global == core_global) {
      return &record.restricted_units;
    }
  }
  return nullptr;
}

void QuarantineControlPlane::ProcessProbation(SimTime now, Fleet& fleet,
                                              CoreScheduler& scheduler,
                                              CeeReportService& service,
                                              std::vector<QuarantineVerdict>& verdicts) {
  if (probation_.empty()) {
    return;
  }
  std::vector<ProbationRecord> still_open;
  still_open.reserve(probation_.size());
  for (ProbationRecord& record : probation_) {
    if (record.next_window > now) {
      still_open.push_back(std::move(record));
      continue;
    }
    // Shadow screen: one confession battery per due window, at the elevated probation cadence.
    // (Under require_confession = false there is no battery to run, so shadow windows can only
    // come up clean; escalation then rides on fresh accusations alone.)
    const QuarantineManager::Interrogation shadow =
        manager_.Interrogate(record.core_global, fleet);
    bool signal = shadow.confessed;
    if (signal && chaos_.SuppressProbationSignal()) {
      // The signal was swallowed in flight: this window LOOKS clean, so escalation is delayed
      // — or, if enough windows pass, a defective core gets wrongly reinstated. The lifecycle
      // conservation property still holds; only the outcome quality degrades.
      signal = false;
    }
    if (signal) {
      Trace(record.core_global, TraceEventKind::kProbationEnd, TraceCause::kProbationEscalated,
            static_cast<uint64_t>(record.windows_clean));
      verdicts.push_back(manager_.EscalateProbation(now, record.core_global, /*confessed=*/true,
                                                    fleet, scheduler, service));
      continue;
    }
    ++record.windows_clean;
    record.next_window = now + options_.probation.window;
    if (record.windows_clean >= options_.probation.clean_windows_to_reinstate) {
      Trace(record.core_global, TraceEventKind::kProbationEnd, TraceCause::kReinstated,
            static_cast<uint64_t>(record.windows_clean));
      manager_.Reinstate(record.core_global, fleet, scheduler, service);
      if (reinstatement_hook_) {
        reinstatement_hook_(now, record.core_global);
      }
      continue;
    }
    still_open.push_back(std::move(record));
  }
  probation_ = std::move(still_open);
}

void QuarantineControlPlane::ApplyRestarts(SimTime now, SimTime dt, Fleet& fleet,
                                           CoreScheduler& scheduler,
                                           CeeReportService& service) {
  if (options_.chaos.machine_restart_per_day <= 0.0) {
    return;
  }
  const std::vector<uint64_t> restarted = chaos_.DrawRestarts(dt, fleet.InstalledMachineIds(now));
  if (restarted.empty() || pending_.empty()) {
    return;
  }
  std::vector<Pending> survivors;
  survivors.reserve(pending_.size());
  for (const Pending& pending : pending_) {
    if (!std::binary_search(restarted.begin(), restarted.end(), pending.machine)) {
      survivors.push_back(pending);
      continue;
    }
    // The machine hosting this in-flight quarantine crash-restarted: the quarantine daemon's
    // state is gone, the core boots back into the schedule, and the evidence cache that
    // triggered the interrogation is invalidated. Detection progress is lost, not the core.
    // No verdict is recorded — ground-truth counters only move on verdicts.
    scheduler.Release(pending.core_global);
    service.Forget(pending.core_global);
    ++stats_.restarts_reset;
    Trace(pending.core_global, TraceEventKind::kQuarantineForceRelease,
          TraceCause::kMachineRestart, pending.machine);
  }
  pending_ = std::move(survivors);
}

void QuarantineControlPlane::EnforceGuardrail(SimTime now, Fleet& fleet,
                                              CoreScheduler& scheduler,
                                              CeeReportService& service,
                                              ScreeningOrchestrator* screening) {
  if (options_.quarantine_budget_fraction >= 1.0) {
    return;
  }
  const auto budget_cores = static_cast<size_t>(options_.quarantine_budget_fraction *
                                                static_cast<double>(scheduler.core_count()));
  if (scheduler.pending_isolation_count() <= budget_cores) {
    return;
  }
  ++stats_.guardrail_activations;

  // Throttle the inflow: push back offline screens (each one drains a core) that would come
  // due while we are over budget. This is the serial-phase hook that rebuckets the sparse
  // engine's due-wheels: ThrottleOffline itself moves qualifying wheel entries to the
  // deferral horizon (filtering on exact due times, so the count and the due table are
  // bit-identical to the dense scan) — the control plane needs no wheel awareness beyond
  // calling it between parallel phases, which Tick's position in the tick loop guarantees.
  if (screening != nullptr) {
    stats_.screening_deferrals += screening->ThrottleOffline(now, options_.throttle_defer);
  }

  // Release the least-suspect pending cores first until the pipeline is back under budget.
  // Ties break on core index so the release order is deterministic.
  std::vector<size_t> order(pending_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    if (pending_[a].score != pending_[b].score) {
      return pending_[a].score < pending_[b].score;
    }
    return pending_[a].core_global < pending_[b].core_global;
  });
  std::vector<bool> released(pending_.size(), false);
  for (size_t index : order) {
    if (scheduler.pending_isolation_count() <= budget_cores) {
      break;
    }
    manager_.ForceRelease(pending_[index].core_global, fleet, scheduler, service);
    released[index] = true;
    ++stats_.guardrail_releases;
    Trace(pending_[index].core_global, TraceEventKind::kQuarantineForceRelease,
          TraceCause::kGuardrail);
  }
  std::vector<Pending> survivors;
  survivors.reserve(pending_.size());
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!released[i]) {
      survivors.push_back(pending_[i]);
    }
  }
  pending_ = std::move(survivors);
}

std::vector<QuarantineVerdict> QuarantineControlPlane::Tick(SimTime now, SimTime dt,
                                                            Fleet& fleet,
                                                            CoreScheduler& scheduler,
                                                            CeeReportService& service,
                                                            ScreeningOrchestrator* screening) {
  // Late deliveries first, so a delayed report can still contribute to this tick's suspicion.
  for (const Signal& signal : chaos_.FlushDelayed(now)) {
    service.Report(signal);
  }
  ApplyRestarts(now, dt, fleet, scheduler, service);

  const std::vector<SuspectCore> suspects = service.Suspects(now);
  std::vector<QuarantineVerdict> verdicts;
  AdmitSuspects(now, suspects, fleet, scheduler, service, verdicts);
  AdvanceDrains(now, scheduler);

  RunInterrogations(now, fleet, scheduler, service, verdicts);
  ProcessProbation(now, fleet, scheduler, service, verdicts);
  EnforceGuardrail(now, fleet, scheduler, service, screening);

  const uint64_t isolated = scheduler.pending_isolation_count();
  stats_.peak_pending_isolation = std::max(stats_.peak_pending_isolation, isolated);
  stats_.pending_isolation_core_seconds +=
      static_cast<double>(isolated) * static_cast<double>(dt.seconds());
  stats_.quorum = quorum_.stats();
  stats_.chaos = chaos_.stats();
  return verdicts;
}

void QuarantineControlPlane::SaveDurableState(ByteWriter& w) const { w(DurableFields(*this)); }

Status QuarantineControlPlane::LoadDurableState(ByteReader& r) {
  return r.Restore(DurableFields(*this));
}

void QuarantineControlPlane::ReconcileWithFleet(CoreScheduler& scheduler,
                                                uint64_t* released_unknown,
                                                uint64_t* reinstated_unknown,
                                                uint64_t* dropped_pending,
                                                uint64_t* dropped_probation) {
  // Pass 1: drop book entries the live scheduler shows already resolved. The controller that
  // died after the durable horizon finalized these cores (verdict, force-release, or
  // probation resolution); the recovered books must not interrogate or shadow-screen a core
  // the fleet no longer holds.
  auto pending_end = std::remove_if(pending_.begin(), pending_.end(), [&](const Pending& p) {
    const CoreState state = scheduler.state(p.core_global);
    const bool resolved = state != CoreState::kQuarantined && state != CoreState::kDraining;
    if (resolved) {
      ++*dropped_pending;
    }
    return resolved;
  });
  pending_.erase(pending_end, pending_.end());
  auto probation_end =
      std::remove_if(probation_.begin(), probation_.end(), [&](const ProbationRecord& p) {
        const bool resolved = scheduler.state(p.core_global) != CoreState::kProbation;
        if (resolved) {
          ++*dropped_probation;
        }
        return resolved;
      });
  probation_.erase(probation_end, probation_.end());

  // Pass 1b: align the drain status of kept entries with the live scheduler. The book rolled
  // back, the fleet did not, so the scheduler may have finished (or restarted) a drain the
  // recovered entry still thinks is in flight. Without this, AdvanceDrains would re-quarantine
  // an already-quarantined core, and a probation verdict could land on a still-draining one —
  // both scheduler-transition violations. Alignment trusts the fleet: a completed drain clears
  // the flag; a live drain the book forgot is marked past-due so the normal escalation path
  // (AdvanceDrains) quarantines it on the next tick before any verdict can touch it.
  for (Pending& pending : pending_) {
    const CoreState state = scheduler.state(pending.core_global);
    if (pending.draining && state == CoreState::kQuarantined) {
      pending.draining = false;
    } else if (!pending.draining && state == CoreState::kDraining) {
      pending.draining = true;
      pending.drain_done = SimTime::Seconds(0);
    }
  }

  // Pass 2: release fleet holds the recovered books no longer claim. These cores were
  // admitted (or moved to probation) after the durable horizon; without a book entry no
  // interrogation or shadow screen would ever resolve them, so the recovery path returns
  // them to service directly — the suspicion evidence re-accumulates organically, which is
  // delay, not loss.
  for (uint64_t core = 0; core < scheduler.core_count(); ++core) {
    const CoreState state = scheduler.state(core);
    if (state == CoreState::kQuarantined || state == CoreState::kDraining) {
      if (!IsPending(core)) {
        scheduler.Release(core);
        ++*released_unknown;
      }
    } else if (state == CoreState::kProbation) {
      const bool known = std::any_of(
          probation_.begin(), probation_.end(),
          [core](const ProbationRecord& p) { return p.core_global == core; });
      if (!known) {
        scheduler.Reinstate(core);
        ++*reinstated_unknown;
      }
    }
  }
}

}  // namespace mercurial
