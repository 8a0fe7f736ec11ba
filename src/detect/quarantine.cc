#include "src/detect/quarantine.h"

#include <algorithm>
#include <cmath>

namespace mercurial {

QuarantineManager::QuarantineManager(QuarantinePolicy policy, Rng rng)
    : policy_(policy), tester_(policy.confession), rng_(rng) {}

int QuarantineManager::RecordAccusation(uint64_t core_global) {
  const int count = ++accusation_counts_[core_global];
  ++stats_.accusations;
  if (count == 1) {
    ++stats_.suspects_processed;
  }
  return count;
}

uint64_t QuarantineManager::OpsPerAttempt() const {
  return policy_.confession.stress.iterations_per_unit * kExecUnitCount;
}

QuarantineManager::Interrogation QuarantineManager::Interrogate(uint64_t core_global,
                                                                Fleet& fleet) {
  Interrogation result;
  if (!policy_.require_confession) {
    return result;  // ran == false: retirement on suspicion alone, no battery
  }
  result.ran = true;
  SimCore& core = fleet.core(core_global);
  if (core.healthy()) {
    // Healthy cores cannot confess (fast path; identical outcome to running the battery).
    stats_.interrogation_ops +=
        OpsPerAttempt() * static_cast<uint64_t>(policy_.confession.max_attempts);
    return result;
  }
  const Confession confession = tester_.Interrogate(core, rng_);
  stats_.interrogation_ops += confession.ops_used;
  result.ops_used = confession.ops_used;
  if (confession.confessed) {
    result.confessed = true;
    result.failed_units = confession.failed_units;
    failed_units_[core_global] = confession.failed_units;
  }
  return result;
}

QuarantineManager::Interrogation QuarantineManager::AbortedInterrogation(double fraction_run) {
  Interrogation result;
  result.ran = true;
  result.ops_used = static_cast<uint64_t>(
      std::llround(static_cast<double>(OpsPerAttempt()) * fraction_run));
  stats_.interrogation_ops += result.ops_used;
  return result;
}

QuarantineVerdict QuarantineManager::Finalize(SimTime now, uint64_t core_global,
                                              const Interrogation& last, Fleet& fleet,
                                              CoreScheduler& scheduler,
                                              CeeReportService& service) {
  QuarantineVerdict verdict;
  verdict.core_global = core_global;
  const bool truly_mercurial = fleet.IsMercurial(core_global);

  if (last.confessed) {
    ++stats_.confessions;
    verdict.confessed = true;
    verdict.failed_units = last.failed_units;
  }
  bool retire = last.confessed || !last.ran;

  // Recidivism: repeated accusations retire a core even without a confession.
  if (!retire && policy_.recidivism_retire_after > 0 &&
      accusation_counts_[core_global] >= policy_.recidivism_retire_after) {
    retire = true;
    ++stats_.recidivism_retirements;
  }

  if (retire) {
    scheduler.Retire(core_global);
    retirement_times_.emplace(core_global, now);
    ++stats_.retirements;
    if (truly_mercurial) {
      ++stats_.true_positive_retirements;
    } else {
      ++stats_.false_positive_retirements;
    }
  } else {
    scheduler.Release(core_global);
    ++stats_.releases;
    if (truly_mercurial) {
      ++stats_.missed_confessions;
    }
  }
  // Either way, clear accumulated report mass so old evidence is not double-counted.
  service.Forget(core_global);

  verdict.retired = retire;
  return verdict;
}

bool QuarantineManager::WouldRetire(uint64_t core_global, const Interrogation& last) const {
  if (last.confessed || !last.ran) {
    return true;
  }
  if (policy_.recidivism_retire_after > 0) {
    const auto it = accusation_counts_.find(core_global);
    if (it != accusation_counts_.end() && it->second >= policy_.recidivism_retire_after) {
      return true;
    }
  }
  return false;
}

QuarantineVerdict QuarantineManager::BeginProbation(uint64_t core_global,
                                                    const Interrogation& last,
                                                    CoreScheduler& scheduler,
                                                    CeeReportService& service) {
  QuarantineVerdict verdict;
  verdict.core_global = core_global;
  if (last.confessed) {
    ++stats_.confessions;
    verdict.confessed = true;
    verdict.failed_units = last.failed_units;
  }
  ++stats_.probation_entries;
  scheduler.Probation(core_global);
  service.Forget(core_global);
  // verdict.retired stays false: the conviction is held open, not resolved. Ground-truth
  // counters move only at the terminal outcome (EscalateProbation or Reinstate).
  return verdict;
}

QuarantineVerdict QuarantineManager::EscalateProbation(SimTime now, uint64_t core_global,
                                                       bool confessed, Fleet& fleet,
                                                       CoreScheduler& scheduler,
                                                       CeeReportService& service) {
  QuarantineVerdict verdict;
  verdict.core_global = core_global;
  verdict.retired = true;
  if (confessed) {
    // The shadow screen extracted a fresh confession — a new interrogation that confessed.
    ++stats_.confessions;
    verdict.confessed = true;
  }
  const auto units = failed_units_.find(core_global);
  if (units != failed_units_.end()) {
    verdict.failed_units = units->second;
  }
  scheduler.Retire(core_global);
  retirement_times_.emplace(core_global, now);
  ++stats_.retirements;
  ++stats_.probation_escalations;
  if (fleet.IsMercurial(core_global)) {
    ++stats_.true_positive_retirements;
  } else {
    ++stats_.false_positive_retirements;
  }
  service.Forget(core_global);
  return verdict;
}

void QuarantineManager::Reinstate(uint64_t core_global, Fleet& fleet, CoreScheduler& scheduler,
                                  CeeReportService& service) {
  scheduler.Reinstate(core_global);
  ++stats_.reinstatements;
  if (fleet.IsMercurial(core_global)) {
    ++stats_.missed_confessions;
  }
  // Clean slate: suspicion cleared means recidivism starts over and the failed-unit record
  // (which only ever described a weak confession) is withdrawn.
  accusation_counts_.erase(core_global);
  failed_units_.erase(core_global);
  service.Forget(core_global);
}

void QuarantineManager::ForceRelease(uint64_t core_global, Fleet& fleet,
                                     CoreScheduler& scheduler, CeeReportService& service) {
  scheduler.Release(core_global);
  ++stats_.releases;
  if (fleet.IsMercurial(core_global)) {
    ++stats_.missed_confessions;
  }
  service.Forget(core_global);
}

void QuarantineManager::SaveDurableState(ByteWriter& w) const { w(DurableFields(*this)); }

Status QuarantineManager::LoadDurableState(ByteReader& r) {
  return r.Restore(DurableFields(*this));
}

}  // namespace mercurial
