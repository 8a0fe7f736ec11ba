// The traced driver: runs one study through the layers' public functions from the
// benchmark's own code, with a span around every call into a layer.
//
// It follows FleetStudy's sharded tick loop (threads = 1) stage by stage and stream by
// stream, so for the same options it does the same work. It does not replace FleetStudy: the
// untraced run measures FleetStudy itself, and the benchmark prints this driver's work counts
// next to the untraced report's so that any drift between the two is visible. Burn-in and the
// dense engine are not followed; the driver refuses options that need them.

#ifndef STUDYBENCH_SRC_TRACED_DRIVER_H_
#define STUDYBENCH_SRC_TRACED_DRIVER_H_

#include <array>
#include <cstdint>

#include "src/core/fleet_study.h"
#include "studybench/src/spans.h"

namespace studybench {

// Span layer ids of the traced driver, in registration order.
enum TracedLayer : int {
  kSetup = 0,          // root of construction
  kFleetBuild,         // Fleet::Build
  kStudy,              // root of the run: the driver's own code is this span's self time
  kFleetSetAges,       // Fleet::SetAges
  kActiveIndex,        // ActiveProductionIndex::Build / Advance
  kScreeningPlan,      // ScreeningOrchestrator::PlanAdaptiveTick
  kScreeningTick,      // ScreeningOrchestrator::TickShard
  kControlPlaneReport, // QuarantineControlPlane::Report (feeds the report service)
  kControlPlaneTick,   // QuarantineControlPlane::Tick
  kRepairEnqueue,      // RepairOrchestrator::OnConviction / OnReinstated (inside the plane's tick)
  kRepairTick,         // RepairOrchestrator::Tick
  kSchedulerAccounting,// CoreScheduler drains, releases and stranding integrals
  kMcaLog,             // McaLog::Append
  kJournalAppend,      // DurabilityManager::EndTick
  kJournalRecover,     // DurabilityManager::Recover and the reconcile that follows it
  kTraceAssemble,      // TraceRecorder::Assemble
  kRepairFinalize,     // RepairOrchestrator::FinalizeAccounting
  kWorkloadFirst,      // Workload::Run, one layer per WorkloadKind from here on
};

struct TracedStudyResult {
  SpanTracer tracer;
  uint64_t ticks = 0;

  // Work counts, for the cross-check against the untraced report.
  uint64_t work_units = 0;
  std::array<uint64_t, mercurial::kWorkloadKindCount> units_by_kind = {};
  uint64_t wrong_outputs = 0;  // units whose output differed from the golden recompute
  uint64_t sim_ops = 0;        // WorkloadResult::ops summed
  uint64_t signals_reported = 0;
  uint64_t pending_tick_sum = 0;  // control-plane pending_count() summed over ticks
  mercurial::ScreeningTickStats screening;
  mercurial::DueWheelStats wheel;
  mercurial::ControlPlaneStats control_plane;
  mercurial::QuarantineStats quarantine;
  mercurial::RepairStats repair;
  mercurial::JournalStats journal;
  mercurial::TraceCounters trace;
};

// Registers the TracedLayer spans on `tracer`, in enum order.
void AddTracedLayers(SpanTracer& tracer);

// Runs `options` traced. Aborts on options the driver does not follow (burn-in, dense engine,
// a single shard).
TracedStudyResult RunTracedStudy(const mercurial::StudyOptions& options);

}  // namespace studybench

#endif  // STUDYBENCH_SRC_TRACED_DRIVER_H_
