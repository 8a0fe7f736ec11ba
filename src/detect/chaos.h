// Detection-pipeline chaos injection.
//
// The paper's detection machinery (§6) is itself distributed software running on the same
// unreliable fleet it screens: suspect-core RPCs can be lost or arrive twice, interrogation
// jobs get preempted mid-battery, and the daemons holding in-flight quarantine state die with
// their machines. The injector perturbs exactly this layer — the *infrastructure*, never the
// cores — so a study can measure how detection quality degrades when the control plane is
// stressed (see control_plane.h and the chaos rows of bench_quarantine_pipeline).
//
// All faults are drawn from one dedicated seeded stream, so a chaos experiment is exactly as
// reproducible as a clean one. With every knob at zero the injector makes NO random draws and
// forwards everything unchanged: a disabled injector is bit-invisible to the pipeline.

#ifndef MERCURIAL_SRC_DETECT_CHAOS_H_
#define MERCURIAL_SRC_DETECT_CHAOS_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/common/wire.h"
#include "src/detect/signal.h"

namespace mercurial {

struct ChaosOptions {
  // In-flight faults on suspect reports (applied per signal, in this priority order: a
  // dropped report cannot also be delayed or duplicated).
  double drop_report = 0.0;       // P(report lost before reaching the service)
  double delay_report = 0.0;      // P(report delivered late instead of now)
  double duplicate_report = 0.0;  // P(report delivered twice)
  SimTime report_delay_mean = SimTime::Days(2);  // mean of the exponential delivery delay

  // P(an interrogation battery is preempted mid-run). The aborted attempt charges a partial
  // op cost and yields no verdict either way — the run simply didn't finish.
  double abort_interrogation = 0.0;

  // Per-machine crash-restart rate per day. A restart wipes the quarantine daemon's in-flight
  // state for that machine's cores (control_plane.h applies the reset).
  double machine_restart_per_day = 0.0;

  // Repair-path faults (consumed by the RepairOrchestrator's injector, mitigate/
  // repair_orchestrator.h). The retroactive-repair pipeline is itself fleet software: its
  // scans can miss, its executors can be defective, and its jobs get preempted.
  double repair_fail_reverify = 0.0;   // P(re-verification misses a corrupt artifact)
  double repair_on_defective = 0.0;    // P(the repair executor is itself defective)
  double repair_partial = 0.0;         // P(a repair pass is preempted mid-epoch)

  // Verdict-path faults (consumed by the quorum/probation layer, detect/quorum.h and
  // control_plane.h). The testimony itself is fleet software output: a tester or witness can
  // lie, a witness can die mid-vote, and the daemon relaying a probation signal can drop it.
  double lying_witness = 0.0;      // P(a cast vote — or the lone tester's verdict — is flipped)
  double witness_crash = 0.0;      // P(a witness crashes mid-vote and casts nothing)
  double probation_suppress = 0.0; // P(a probation shadow-screen signal is swallowed)

  // Controller-process faults (consumed by the fleet study's durability layer,
  // src/durability/journal.h — the injector object itself never draws for them). The
  // controller running this detection machinery is as mercurial as the fleet it polices: it
  // can die mid-study and must recover from its write-ahead journal. Crash decisions are
  // drawn from a stateless counter-keyed stream of (seed, tick), never from the injector's
  // sequential stream, so a crashed-and-recovered study stays bit-identical to an uncrashed
  // one. These knobs deliberately do NOT participate in enabled(): flipping enabled() would
  // make the report-path injector start consuming Bernoulli draws for its zero-rate knobs
  // and silently shift every stream.
  double controller_crash_per_day = 0.0;  // P per day that the controller dies and recovers
  int controller_crash_every_ticks = 0;   // deterministic: crash after every k-th tick (0=off)
  double journal_torn_tail = 0.0;  // P(a crash also tears bytes off the journal tail)
  double journal_bit_flip = 0.0;   // P(a crash also flips one bit in the journal tail)

  bool controller_enabled() const {
    return controller_crash_per_day > 0.0 || controller_crash_every_ticks > 0;
  }

  bool enabled() const {
    return drop_report > 0.0 || delay_report > 0.0 || duplicate_report > 0.0 ||
           abort_interrogation > 0.0 || machine_restart_per_day > 0.0 || repair_enabled() ||
           verdict_enabled();
  }

  bool verdict_enabled() const {
    return lying_witness > 0.0 || witness_crash > 0.0 || probation_suppress > 0.0;
  }

  bool repair_enabled() const {
    return repair_fail_reverify > 0.0 || repair_on_defective > 0.0 || repair_partial > 0.0;
  }

  // Rejects probabilities outside [0,1], negative rates, and a non-positive delay mean while
  // delays are enabled.
  Status Validate() const;
};

struct ChaosStats {
  uint64_t reports_dropped = 0;
  uint64_t reports_delayed = 0;
  uint64_t reports_duplicated = 0;
  uint64_t interrogations_aborted = 0;
  uint64_t machine_restarts = 0;
  uint64_t reverify_misses = 0;       // corrupt artifacts a chaos-failed re-verification passed
  uint64_t defective_repairs = 0;     // repair passes forced onto a defective executor
  uint64_t partial_repairs = 0;       // repair passes preempted mid-epoch
  uint64_t witnesses_lied = 0;        // votes (or lone-tester verdicts) flipped in flight
  uint64_t witnesses_crashed = 0;     // witnesses that died mid-vote and cast nothing
  uint64_t probation_signals_suppressed = 0;  // shadow-screen confessions swallowed in flight
};

// A ChaosStats block's wire walk (src/common/wire.h), embedded by the chaos injector's, the
// control plane's and the repair orchestrator's durable state.
template <class Wire, RecordOf<ChaosStats> S>
void Walk(Wire& w, S& s) {
  w(s.reports_dropped, s.reports_delayed, s.reports_duplicated, s.interrogations_aborted,
    s.machine_restarts, s.reverify_misses, s.defective_repairs, s.partial_repairs,
    s.witnesses_lied, s.witnesses_crashed, s.probation_signals_suppressed);
}

class ChaosInjector {
 public:
  ChaosInjector(ChaosOptions options, Rng rng);

  bool enabled() const { return options_.enabled(); }

  // Applies in-flight faults to one report. Immediate deliveries (0, 1, or 2 copies) are
  // appended to `deliver`; a delayed copy is queued internally until FlushDelayed.
  void InjectReport(const Signal& signal, std::vector<Signal>& deliver);

  // Delayed reports whose delivery time has arrived, ordered by (due time, injection order).
  std::vector<Signal> FlushDelayed(SimTime now);

  // True if the interrogation about to run is preempted; `fraction_run` is then the fraction
  // of the battery that executed before the abort (its ops are still charged).
  bool AbortInterrogation(double* fraction_run);

  // Machines (ids drawn from `installed`) that crash-restart during a tick of length `dt`.
  // Sorted and deduplicated.
  std::vector<uint64_t> DrawRestarts(SimTime dt, const std::vector<uint64_t>& installed);

  // --- Repair-path faults (retroactive repair, mitigate/repair_orchestrator.h) -------------

  // True if a re-verification pass misses the corrupt artifact it is examining: the scan
  // reports clean and the corruption silently stays at rest.
  bool FailReverify();

  // True if the repair pass is forced onto a defective executor (modeling the test escapes
  // the fleet has not convicted yet); the pass's outputs are untrusted and must be retried.
  bool RepairOnDefective();

  // True if the repair pass is preempted mid-epoch; `fraction_done` is then the fraction of
  // the planned artifacts that were processed before the preemption.
  bool PartialRepair(double* fraction_done);

  // --- Verdict-path faults (quorum interrogation and probation, detect/quorum.h) -----------

  // True if the vote being cast (or, with the quorum disabled, the lone tester's battery
  // verdict) is corrupted in flight and arrives inverted.
  bool LyingWitness();

  // True if the witness about to vote crashes mid-battery and casts no vote at all.
  bool WitnessCrash();

  // True if a probation shadow-screen confession is swallowed before reaching the control
  // plane: the window looks clean and escalation is delayed, not prevented.
  bool SuppressProbationSignal();

  size_t delayed_in_flight() const { return delayed_.size(); }
  const ChaosStats& stats() const { return stats_; }

  // Durable-state round trip for the write-ahead journal (src/durability): the RNG cursor,
  // fault counters, and the delayed-report queue are controller state a crash must not lose —
  // a delayed report that vanished with the daemon would silently un-delay a suspect.
  // Options and wiring are reconstructed from StudyOptions, not persisted.
  void SaveDurableState(ByteWriter& w) const;
  Status LoadDurableState(ByteReader& r);

 private:
  struct DelayedSignal {
    SimTime due;
    uint64_t seq = 0;  // injection order, for a deterministic tie-break on equal due times
    Signal signal;

    template <class Wire, RecordOf<DelayedSignal> D>
    friend void Walk(Wire& w, D& d) {
      w(d.due, d.seq, d.signal.time, d.signal.machine, d.signal.core_global, d.signal.type);
    }
  };

  // The durable state in wire order: SaveDurableState writes it, LoadDurableState restores it.
  template <class Self>
  static auto DurableFields(Self& self) {
    return std::tie(self.rng_, self.stats_, self.next_seq_, self.delayed_);
  }

  ChaosOptions options_;
  Rng rng_;
  ChaosStats stats_;
  std::vector<DelayedSignal> delayed_;
  uint64_t next_seq_ = 0;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_DETECT_CHAOS_H_
