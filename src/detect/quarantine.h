// Quarantine policy: suspicion -> interrogation -> verdict (§6, §6.1).
//
// The manager consumes suspect cores (from the report service or screening failures), drains
// and quarantines them, interrogates them with a ConfessionTester, and either retires the core
// (confession) or releases it (no confession: false accusation OR limited reproducibility).
// It tracks the tradeoff the paper emphasizes: false negatives / delayed positives cause
// corruption, false positives strand capacity, and detection itself costs cycles.
//
// The manager exposes a stepwise API (RecordAccusation / Interrogate / Finalize /
// ForceRelease, plus the probation calls) that the QuarantineControlPlane (control_plane.h)
// drives — queued admission, retried interrogations, guardrail releases — while all stats and
// recidivism bookkeeping stay in one place.

#ifndef MERCURIAL_SRC_DETECT_QUARANTINE_H_
#define MERCURIAL_SRC_DETECT_QUARANTINE_H_

#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/wire.h"
#include "src/detect/confession.h"
#include "src/detect/report_service.h"
#include "src/fleet/fleet.h"
#include "src/sched/scheduler.h"

namespace mercurial {

struct QuarantinePolicy {
  ConfessionOptions confession;
  // If false, suspects are retired on suspicion alone (aggressive isolation: zero interrogation
  // cost, maximal false-positive stranding). Ablation knob for E8.
  bool require_confession = true;
  // A released (non-confessing) core must be re-accused this many times before it is retired
  // anyway ("recidivism ... increases our confidence", §6). 0 disables.
  int recidivism_retire_after = 3;
};

// Counter semantics:
//   suspects_processed       distinct cores that entered the quarantine pipeline at least
//                            once. A core released and later re-accused is NOT counted again
//                            (each re-accusation lands in `accusations` instead; earlier
//                            versions double-counted recidivists here). Reinstatement wipes a
//                            core's slate, so a reinstated core accused afresh counts anew.
//   accusations              total accusation events, including re-accusations of released
//                            cores. A retry of an in-flight interrogation (control plane) is
//                            not a new accusation.
//   confessions              interrogations that ended in a confession.
//   releases                 verdicts returning the core to service (false accusation or
//                            limited reproducibility), including guardrail-forced releases.
//   retirements              permanent removals: confessions + recidivism retirements +
//                            suspicion-only retirements (require_confession = false) +
//                            probation escalations.
//   recidivism_retirements   subset of retirements forced by the re-accusation threshold.
//   probation_entries        weak-evidence convictions diverted to restricted service instead
//                            of terminal retirement (control_plane.h probation lifecycle).
//   probation_escalations    subset of retirements reached by escalating a probation core
//                            (new signal or shadow-screen confession during probation).
//   reinstatements           probation cores cleared after N clean windows: suspicion reset,
//                            stranded capacity recovered. Not a release — the core was never
//                            waiting on a verdict when cleared.
//   interrogation_ops        micro-ops charged to confession batteries (aborted runs included,
//                            pro-rated).
// Ground-truth counters (metrics only, detection code never reads them):
//   true_positive_retirements / false_positive_retirements / missed_confessions.
struct QuarantineStats {
  uint64_t suspects_processed = 0;
  uint64_t accusations = 0;
  uint64_t confessions = 0;
  uint64_t releases = 0;
  uint64_t retirements = 0;
  uint64_t recidivism_retirements = 0;
  uint64_t probation_entries = 0;
  uint64_t probation_escalations = 0;
  uint64_t reinstatements = 0;
  uint64_t interrogation_ops = 0;
  uint64_t true_positive_retirements = 0;   // retired cores that really were mercurial
  uint64_t false_positive_retirements = 0;  // retired healthy cores
  uint64_t missed_confessions = 0;  // truly mercurial suspects that did not confess
};

// A QuarantineStats block's wire walk (src/common/wire.h).
template <class Wire, RecordOf<QuarantineStats> S>
void Walk(Wire& w, S& s) {
  w(s.suspects_processed, s.accusations, s.confessions, s.releases, s.retirements,
    s.recidivism_retirements, s.probation_entries, s.probation_escalations, s.reinstatements,
    s.interrogation_ops, s.true_positive_retirements, s.false_positive_retirements,
    s.missed_confessions);
}

struct QuarantineVerdict {
  uint64_t core_global = 0;
  bool confessed = false;
  bool retired = false;
  std::vector<ExecUnit> failed_units;
};

class QuarantineManager {
 public:
  QuarantineManager(QuarantinePolicy policy, Rng rng);

  // --- Stepwise API (used by QuarantineControlPlane) --------------------------------------

  // One interrogation attempt's outcome. `ran == false` marks the require_confession = false
  // short-circuit (no battery executed, retirement on suspicion alone).
  struct Interrogation {
    bool ran = false;
    bool confessed = false;
    std::vector<ExecUnit> failed_units;
    uint64_t ops_used = 0;
  };

  // Records one accusation event; returns the cumulative count for the core. The first-ever
  // accusation also counts the core in suspects_processed.
  int RecordAccusation(uint64_t core_global);

  // Runs one confession battery (or the policy short-circuit) against a quarantined core.
  // Charges interrogation_ops and records failed units on confession. Scheduler state is the
  // caller's responsibility.
  Interrogation Interrogate(uint64_t core_global, Fleet& fleet);

  // An interrogation preempted after `fraction_run` of its battery (chaos injection): charges
  // the pro-rated op cost of one attempt and yields no evidence either way.
  Interrogation AbortedInterrogation(double fraction_run);

  // Applies the final verdict once interrogation attempts are exhausted: retire on confession,
  // suspicion-only policy, or recidivism; release otherwise. Updates stats, ground-truth
  // bookkeeping, retirement times, and clears the core's accumulated report mass.
  QuarantineVerdict Finalize(SimTime now, uint64_t core_global, const Interrogation& last,
                             Fleet& fleet, CoreScheduler& scheduler, CeeReportService& service);

  // Forced release without a verdict (capacity guardrail): returns the core to service,
  // counts a release (and a missed confession if ground truth says mercurial), and clears the
  // core's report mass. Recidivism is NOT evaluated: the pipeline, not the evidence, gave up.
  void ForceRelease(uint64_t core_global, Fleet& fleet, CoreScheduler& scheduler,
                    CeeReportService& service);

  // --- Probation lifecycle (weak-evidence convictions; control_plane.h drives it) ----------

  // Pure mirror of Finalize's retire decision for `last`, with no side effects: the control
  // plane asks it before choosing between terminal Finalize and BeginProbation.
  bool WouldRetire(uint64_t core_global, const Interrogation& last) const;

  // Weak-evidence conviction: instead of retiring, the core moves to restricted service
  // (scheduler probation). A confession is still counted and its failed units recorded —
  // those units are the probation placement restriction — but no retirement, ground-truth,
  // or release counter moves: the conviction is not terminal yet. Clears report mass.
  QuarantineVerdict BeginProbation(uint64_t core_global, const Interrogation& last,
                                   CoreScheduler& scheduler, CeeReportService& service);

  // New evidence during probation (fresh accusation, or a shadow-screen confession when
  // `confessed`): permanent retirement, with the usual retirement/ground-truth bookkeeping.
  QuarantineVerdict EscalateProbation(SimTime now, uint64_t core_global, bool confessed,
                                      Fleet& fleet, CoreScheduler& scheduler,
                                      CeeReportService& service);

  // N clean probation windows: suspicion cleared. The core returns to unrestricted service,
  // its accusation count and failed-unit record reset (a reinstated core starts from a clean
  // slate — recidivism must re-accumulate). Counts a missed confession if ground truth says
  // the core really is mercurial: reinstating it is the deliberate price of the appeal path.
  void Reinstate(uint64_t core_global, Fleet& fleet, CoreScheduler& scheduler,
                 CeeReportService& service);

  // Micro-op cost of one full interrogation attempt, for abort pro-rating and capacity math.
  uint64_t OpsPerAttempt() const;

  const QuarantinePolicy& policy() const { return policy_; }
  const QuarantineStats& stats() const { return stats_; }

  // Known-bad units per retired core (for §6.1 safe-task placement studies).
  const std::unordered_map<uint64_t, std::vector<ExecUnit>>& failed_units() const {
    return failed_units_;
  }

  // Time each core was first retired (for detection-latency metrics).
  const std::unordered_map<uint64_t, SimTime>& retirement_times() const {
    return retirement_times_;
  }

  // Durable-state round trip for the write-ahead journal (src/durability): the interrogation
  // RNG cursor, verdict counters, and the recidivism/failed-unit/retirement books. Maps are
  // serialized in sorted key order so the bytes are deterministic; the books are only ever
  // consumed by key lookup, so the rebuilt hash order is behavior-invisible. Policy and the
  // (stateless) tester are reconstructed from StudyOptions, not persisted.
  void SaveDurableState(ByteWriter& w) const;
  Status LoadDurableState(ByteReader& r);

 private:
  // The durable state in wire order: SaveDurableState writes it, LoadDurableState restores it.
  template <class Self>
  static auto DurableFields(Self& self) {
    return std::tie(self.rng_, self.stats_, self.accusation_counts_, self.failed_units_,
                    self.retirement_times_);
  }

  QuarantinePolicy policy_;
  ConfessionTester tester_;
  Rng rng_;
  QuarantineStats stats_;
  std::unordered_map<uint64_t, int> accusation_counts_;
  std::unordered_map<uint64_t, std::vector<ExecUnit>> failed_units_;
  std::unordered_map<uint64_t, SimTime> retirement_times_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_DETECT_QUARANTINE_H_
