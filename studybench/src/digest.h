// Correctness digest of one study: every deterministic StudyReport field, the study's
// metric-registry dump and the serialized incident trace, hashed into one 64-bit value.
//
// The Visit* functions enumerate the report's fields in a fixed order. The digest hashes what
// they visit, and the benchmark's tests perturb each visited field in turn to show that every
// one of them moves the digest, and check that every field of the plain stats structs is
// visited (a field added to one of them without a line here fails that test).

#ifndef STUDYBENCH_SRC_DIGEST_H_
#define STUDYBENCH_SRC_DIGEST_H_

#include <cstdint>
#include <string>

#include "src/core/fleet_study.h"
#include "src/telemetry/metrics.h"

namespace studybench {

// Each Visit* calls v(name, field) for every field in declaration order. `field` is a
// reference to one of: uint64_t, uint32_t, double, bool, std::vector<double>, Histogram,
// IncidentTrace.

template <class S, class V>
void VisitQuarantineStats(S& s, V&& v) {
  v("suspects_processed", s.suspects_processed);
  v("accusations", s.accusations);
  v("confessions", s.confessions);
  v("releases", s.releases);
  v("retirements", s.retirements);
  v("recidivism_retirements", s.recidivism_retirements);
  v("probation_entries", s.probation_entries);
  v("probation_escalations", s.probation_escalations);
  v("reinstatements", s.reinstatements);
  v("interrogation_ops", s.interrogation_ops);
  v("true_positive_retirements", s.true_positive_retirements);
  v("false_positive_retirements", s.false_positive_retirements);
  v("missed_confessions", s.missed_confessions);
}

template <class S, class V>
void VisitQuorumStats(S& s, V&& v) {
  v("quorum.judgments", s.judgments);
  v("quorum.votes_cast", s.votes_cast);
  v("quorum.splits", s.splits);
  v("quorum.escalations", s.escalations);
  v("quorum.fallbacks", s.fallbacks);
  v("quorum.overrides", s.overrides);
}

template <class S, class V>
void VisitChaosStats(S& s, V&& v) {
  v("chaos.reports_dropped", s.reports_dropped);
  v("chaos.reports_delayed", s.reports_delayed);
  v("chaos.reports_duplicated", s.reports_duplicated);
  v("chaos.interrogations_aborted", s.interrogations_aborted);
  v("chaos.machine_restarts", s.machine_restarts);
  v("chaos.reverify_misses", s.reverify_misses);
  v("chaos.defective_repairs", s.defective_repairs);
  v("chaos.partial_repairs", s.partial_repairs);
  v("chaos.witnesses_lied", s.witnesses_lied);
  v("chaos.witnesses_crashed", s.witnesses_crashed);
  v("chaos.probation_signals_suppressed", s.probation_signals_suppressed);
}

template <class S, class V>
void VisitControlPlaneStats(S& s, V&& v) {
  v("suspects_admitted", s.suspects_admitted);
  v("suspects_shed", s.suspects_shed);
  v("queue_peak", s.queue_peak);
  v("retries_scheduled", s.retries_scheduled);
  v("retry_interrogations", s.retry_interrogations);
  v("drain_escalations", s.drain_escalations);
  v("guardrail_activations", s.guardrail_activations);
  v("guardrail_releases", s.guardrail_releases);
  v("screening_deferrals", s.screening_deferrals);
  v("restarts_reset", s.restarts_reset);
  v("peak_pending_isolation", s.peak_pending_isolation);
  v("pending_isolation_core_seconds", s.pending_isolation_core_seconds);
  v("pending_at_end", s.pending_at_end);
  v("probation_pending_at_end", s.probation_pending_at_end);
  VisitQuorumStats(s.quorum, v);
  VisitChaosStats(s.chaos, v);
}

template <class S, class V>
void VisitSchedulerStats(S& s, V&& v) {
  v("drains", s.drains);
  v("surprise_removals", s.surprise_removals);
  v("quarantines", s.quarantines);
  v("releases", s.releases);
  v("retirements", s.retirements);
  v("probations", s.probations);
  v("reinstatements", s.reinstatements);
  v("migration_cost_core_seconds", s.migration_cost_core_seconds);
  v("lost_work_core_seconds", s.lost_work_core_seconds);
  v("stranded_core_seconds", s.stranded_core_seconds);
  v("probation_core_seconds", s.probation_core_seconds);
  for (auto& drains : s.screen_drains_by_tier) {
    v("screen_drains_by_tier", drains);
  }
  for (auto& cost : s.screen_migration_cost_by_tier) {
    v("screen_migration_cost_by_tier", cost);
  }
}

template <class S, class V>
void VisitRepairStats(S& s, V&& v) {
  v("convictions", s.convictions);
  v("suspect_epochs", s.suspect_epochs);
  v("suspect_artifacts", s.suspect_artifacts);
  v("artifacts_reverified", s.artifacts_reverified);
  v("artifacts_reexecuted", s.artifacts_reexecuted);
  v("repair_ops", s.repair_ops);
  v("retries_scheduled", s.retries_scheduled);
  v("defective_executor_retries", s.defective_executor_retries);
  v("tasks_abandoned", s.tasks_abandoned);
  v("epochs_shed", s.epochs_shed);
  v("artifacts_shed", s.artifacts_shed);
  v("reinstated_epochs_cancelled", s.reinstated_epochs_cancelled);
  v("reinstated_artifacts_cancelled", s.reinstated_artifacts_cancelled);
  v("backlog_peak", s.backlog_peak);
  v("corruptions_found", s.corruptions_found);
  v("corruptions_repaired", s.corruptions_repaired);
  v("corruptions_shed", s.corruptions_shed);
  v("corruptions_missed", s.corruptions_missed);
  v("corruptions_abandoned", s.corruptions_abandoned);
  v("corruptions_still_at_rest", s.corruptions_still_at_rest);
  VisitChaosStats(s.chaos, v);
}

template <class S, class V>
void VisitDurabilityStats(S& s, V&& v) {
  v("enabled", s.enabled);
  v("frames_written", s.frames_written);
  v("bytes_written", s.bytes_written);
  v("snapshots_written", s.snapshots_written);
  v("tick_frames_written", s.tick_frames_written);
  v("recoveries", s.recoveries);
  v("exact_recoveries", s.exact_recoveries);
  v("prefix_recoveries", s.prefix_recoveries);
  v("frames_replayed", s.frames_replayed);
  v("frames_truncated", s.frames_truncated);
  v("torn_tail_truncations", s.torn_tail_truncations);
  v("corrupt_frames_rejected", s.corrupt_frames_rejected);
  v("controller_crashes", s.controller_crashes);
  v("reconcile_released_unknown", s.reconcile_released_unknown);
  v("reconcile_reinstated_unknown", s.reconcile_reinstated_unknown);
  v("reconcile_dropped_pending", s.reconcile_dropped_pending);
  v("reconcile_dropped_probation", s.reconcile_dropped_probation);
}

template <class R, class V>
void VisitReport(R& r, V&& v) {
  v("machines", r.machines);
  v("cores", r.cores);
  v("true_mercurial_cores", r.true_mercurial_cores);
  v("weekly_user_rate", r.weekly_user_rate);
  v("weekly_auto_rate", r.weekly_auto_rate);
  for (auto& count : r.symptom_counts) {
    v("symptom_counts", count);
  }
  v("work_units_executed", r.work_units_executed);
  v("silent_corruptions", r.silent_corruptions);
  VisitQuarantineStats(r.quarantine, v);
  VisitControlPlaneStats(r.control_plane, v);
  VisitSchedulerStats(r.scheduler, v);
  v("probation_work_declined", r.probation_work_declined);
  v("screen_failures", r.screen_failures);
  v("screening_ops", r.screening_ops);
  v("mercurial_retired", r.mercurial_retired);
  v("detection_latency_days", r.detection_latency_days);
  v("detected_per_thousand_machines", r.detected_per_thousand_machines);
  v("planted_per_thousand_machines", r.planted_per_thousand_machines);
  v("mca_recidivists", r.mca_recidivists);
  v("mca_true_mercurial", r.mca_true_mercurial);
  v("mca_unit_attribution_correct", r.mca_unit_attribution_correct);
  v("audit_enabled", r.audit_enabled);
  v("artifacts_tagged", r.artifacts_tagged);
  v("corruptions_tagged", r.corruptions_tagged);
  VisitRepairStats(r.repair, v);
  v("trace", r.trace);
  VisitDurabilityStats(r.durability, v);
}

// FNV-1a over the report's visited fields (doubles by bit pattern, vectors with their length,
// histograms by every bucket and moment, the trace by its serialized bytes).
uint64_t ReportDigest(const mercurial::StudyReport& report);

// The registry's Dump() text.
std::string MetricsDump(const mercurial::MetricRegistry& metrics);

struct StudyDigest {
  uint64_t report = 0;
  uint64_t metrics = 0;
  uint64_t combined = 0;  // report and metrics hashed together; this is what gets pinned
};

StudyDigest DigestStudy(const mercurial::StudyReport& report,
                        const mercurial::MetricRegistry& metrics);

std::string HexDigest(uint64_t value);

}  // namespace studybench

#endif  // STUDYBENCH_SRC_DIGEST_H_
