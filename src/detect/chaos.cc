#include "src/detect/chaos.h"

#include <algorithm>
#include <cmath>

namespace mercurial {

namespace {

Status CheckProbability(double p, const char* name) {
  if (!(p >= 0.0 && p <= 1.0)) {  // negated so NaN is rejected too
    return InvalidArgumentError(std::string(name) + " must be in [0, 1]");
  }
  return Status::Ok();
}

}  // namespace

Status ChaosOptions::Validate() const {
  if (Status s = CheckProbability(drop_report, "chaos drop_report"); !s.ok()) {
    return s;
  }
  if (Status s = CheckProbability(delay_report, "chaos delay_report"); !s.ok()) {
    return s;
  }
  if (Status s = CheckProbability(duplicate_report, "chaos duplicate_report"); !s.ok()) {
    return s;
  }
  if (Status s = CheckProbability(abort_interrogation, "chaos abort_interrogation"); !s.ok()) {
    return s;
  }
  if (!(machine_restart_per_day >= 0.0)) {
    return InvalidArgumentError("chaos machine_restart_per_day must be >= 0");
  }
  if (Status s = CheckProbability(repair_fail_reverify, "chaos repair_fail_reverify"); !s.ok()) {
    return s;
  }
  if (Status s = CheckProbability(repair_on_defective, "chaos repair_on_defective"); !s.ok()) {
    return s;
  }
  if (Status s = CheckProbability(repair_partial, "chaos repair_partial"); !s.ok()) {
    return s;
  }
  if (Status s = CheckProbability(lying_witness, "chaos lying_witness"); !s.ok()) {
    return s;
  }
  if (Status s = CheckProbability(witness_crash, "chaos witness_crash"); !s.ok()) {
    return s;
  }
  if (Status s = CheckProbability(probation_suppress, "chaos probation_suppress"); !s.ok()) {
    return s;
  }
  if (delay_report > 0.0 && report_delay_mean.seconds() <= 0) {
    return InvalidArgumentError("chaos report_delay_mean must be positive when delays are on");
  }
  if (!(controller_crash_per_day >= 0.0)) {
    return InvalidArgumentError("chaos controller_crash_per_day must be >= 0");
  }
  if (controller_crash_every_ticks < 0) {
    return InvalidArgumentError("chaos controller_crash_every_ticks must be >= 0");
  }
  if (Status s = CheckProbability(journal_torn_tail, "chaos journal_torn_tail"); !s.ok()) {
    return s;
  }
  if (Status s = CheckProbability(journal_bit_flip, "chaos journal_bit_flip"); !s.ok()) {
    return s;
  }
  return Status::Ok();
}

ChaosInjector::ChaosInjector(ChaosOptions options, Rng rng) : options_(options), rng_(rng) {}

void ChaosInjector::InjectReport(const Signal& signal, std::vector<Signal>& deliver) {
  // Each knob draws only when armed, so partially-enabled configurations never consume
  // stream positions for faults they cannot inject.
  if (options_.drop_report > 0.0 && rng_.Bernoulli(options_.drop_report)) {
    ++stats_.reports_dropped;
    return;
  }
  if (options_.delay_report > 0.0 && rng_.Bernoulli(options_.delay_report)) {
    ++stats_.reports_delayed;
    const auto delay_seconds = static_cast<int64_t>(rng_.Exponential(
        1.0 / static_cast<double>(options_.report_delay_mean.seconds())));
    delayed_.push_back(
        DelayedSignal{signal.time + SimTime::Seconds(delay_seconds), next_seq_++, signal});
    return;
  }
  deliver.push_back(signal);
  if (options_.duplicate_report > 0.0 && rng_.Bernoulli(options_.duplicate_report)) {
    ++stats_.reports_duplicated;
    deliver.push_back(signal);
  }
}

std::vector<Signal> ChaosInjector::FlushDelayed(SimTime now) {
  std::vector<Signal> due;
  if (delayed_.empty()) {
    return due;
  }
  std::vector<DelayedSignal> ready;
  std::vector<DelayedSignal> waiting;
  for (DelayedSignal& delayed : delayed_) {
    (delayed.due <= now ? ready : waiting).push_back(std::move(delayed));
  }
  delayed_ = std::move(waiting);
  std::sort(ready.begin(), ready.end(), [](const DelayedSignal& a, const DelayedSignal& b) {
    return a.due != b.due ? a.due < b.due : a.seq < b.seq;
  });
  due.reserve(ready.size());
  for (DelayedSignal& delayed : ready) {
    // A late report is still attributed to its original emission time; the suspicion score
    // it adds has simply missed (now - due) of decay windows it would otherwise have fed.
    due.push_back(delayed.signal);
  }
  return due;
}

bool ChaosInjector::AbortInterrogation(double* fraction_run) {
  if (options_.abort_interrogation <= 0.0 || !rng_.Bernoulli(options_.abort_interrogation)) {
    return false;
  }
  ++stats_.interrogations_aborted;
  if (fraction_run != nullptr) {
    *fraction_run = rng_.NextDouble();  // preemption lands uniformly within the battery
  }
  return true;
}

bool ChaosInjector::FailReverify() {
  if (options_.repair_fail_reverify <= 0.0 || !rng_.Bernoulli(options_.repair_fail_reverify)) {
    return false;
  }
  ++stats_.reverify_misses;
  return true;
}

bool ChaosInjector::RepairOnDefective() {
  if (options_.repair_on_defective <= 0.0 || !rng_.Bernoulli(options_.repair_on_defective)) {
    return false;
  }
  ++stats_.defective_repairs;
  return true;
}

bool ChaosInjector::PartialRepair(double* fraction_done) {
  if (options_.repair_partial <= 0.0 || !rng_.Bernoulli(options_.repair_partial)) {
    return false;
  }
  ++stats_.partial_repairs;
  if (fraction_done != nullptr) {
    *fraction_done = rng_.NextDouble();  // preemption lands uniformly within the pass
  }
  return true;
}

bool ChaosInjector::LyingWitness() {
  if (options_.lying_witness <= 0.0 || !rng_.Bernoulli(options_.lying_witness)) {
    return false;
  }
  ++stats_.witnesses_lied;
  return true;
}

bool ChaosInjector::WitnessCrash() {
  if (options_.witness_crash <= 0.0 || !rng_.Bernoulli(options_.witness_crash)) {
    return false;
  }
  ++stats_.witnesses_crashed;
  return true;
}

bool ChaosInjector::SuppressProbationSignal() {
  if (options_.probation_suppress <= 0.0 || !rng_.Bernoulli(options_.probation_suppress)) {
    return false;
  }
  ++stats_.probation_signals_suppressed;
  return true;
}

std::vector<uint64_t> ChaosInjector::DrawRestarts(SimTime dt,
                                                  const std::vector<uint64_t>& installed) {
  std::vector<uint64_t> restarts;
  if (options_.machine_restart_per_day <= 0.0 || installed.empty()) {
    return restarts;
  }
  const double expected = static_cast<double>(installed.size()) *
                          options_.machine_restart_per_day * dt.days();
  const uint64_t events = rng_.Poisson(expected);
  restarts.reserve(events);
  for (uint64_t e = 0; e < events; ++e) {
    restarts.push_back(installed[rng_.UniformInt(0, installed.size() - 1)]);
  }
  std::sort(restarts.begin(), restarts.end());
  restarts.erase(std::unique(restarts.begin(), restarts.end()), restarts.end());
  stats_.machine_restarts += restarts.size();
  return restarts;
}

void ChaosInjector::SaveDurableState(ByteWriter& w) const { w(DurableFields(*this)); }

Status ChaosInjector::LoadDurableState(ByteReader& r) { return r.Restore(DurableFields(*this)); }

}  // namespace mercurial
