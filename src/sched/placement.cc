#include "src/sched/placement.h"

#include "src/common/logging.h"
#include "src/sched/scheduler.h"
#include "src/workload/workload.h"

namespace mercurial {

PlacementPlanner::PlacementPlanner(std::vector<WorkloadProfile> profiles)
    : profiles_(std::move(profiles)) {
  MERCURIAL_CHECK_GT(profiles_.size(), 0u);
}

PlacementPlan PlacementPlanner::Plan(
    const std::unordered_map<uint64_t, std::vector<ExecUnit>>& failed_units_by_core) const {
  PlacementPlan plan;
  double reclaimed_sum = 0.0;
  for (const auto& [core, failed_units] : failed_units_by_core) {
    PlacementDecision decision;
    decision.core = core;
    for (size_t w = 0; w < profiles_.size(); ++w) {
      if (TaskSafeOnCore(profiles_[w].units_exercised, failed_units)) {
        decision.safe_workloads.push_back(w);
        decision.reclaimable_fraction += profiles_[w].mix_fraction;
      }
    }
    if (decision.safe_workloads.empty()) {
      ++plan.fully_stranded;
    }
    reclaimed_sum += decision.reclaimable_fraction;
    plan.decisions.push_back(std::move(decision));
  }
  if (!plan.decisions.empty()) {
    plan.mean_reclaimed = reclaimed_sum / static_cast<double>(plan.decisions.size());
  }
  return plan;
}

std::vector<WorkloadProfile> PlacementPlanner::StandardProfiles() {
  // One profile per standard workload, with the units that workload declares it exercises.
  std::vector<WorkloadProfile> profiles;
  for (int k = 0; k < kWorkloadKindCount; ++k) {
    const auto kind = static_cast<WorkloadKind>(k);
    profiles.push_back({WorkloadKindName(kind), MakeWorkload(kind, {})->UnitsExercised(),
                        1.0 / kWorkloadKindCount});
  }
  return profiles;
}

}  // namespace mercurial
