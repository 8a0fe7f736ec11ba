#include "studybench/src/workloads.h"

#include <stdexcept>

namespace studybench {

using mercurial::SimTime;
using mercurial::StudyOptions;

namespace {

// The settings `mercurialctl study` applies before any flag: the CLI's defaults for the
// mercurial-rate multiplier, work rate and payload, one worker thread, eight shards.
StudyOptions CliBaseline(uint64_t seed) {
  StudyOptions options;
  options.seed = seed;
  options.fleet.mercurial_rate_multiplier = 25.0;
  options.work_units_per_core_day = 20;
  options.workload.payload_bytes = 256;
  options.shards = 8;
  options.threads = 1;
  return options;
}

// The ROADMAP reference study (`--machines=5000 --days=365 --shards=8`) at a twentieth of the
// fleet: production dispatch dominates and the controller is nearly idle.
StudyOptions FleetYear(uint64_t seed) {
  StudyOptions options = CliBaseline(seed);
  options.fleet.machine_count = 250;
  options.duration = SimTime::Days(365);
  return options;
}

// A large, mostly healthy fleet with production nearly bypassed and risk-adaptive screening
// on a short cadence: the screening battery, plan-phase scoring and due-wheel upkeep dominate.
StudyOptions ScreenHeavy(uint64_t seed) {
  StudyOptions options = CliBaseline(seed);
  options.fleet.machine_count = 800;
  options.duration = SimTime::Days(120);
  options.work_units_per_core_day = 2;
  options.screening.offline_period = SimTime::Days(7);
  options.screening.adaptive = true;
  options.screening.adaptive_min_period = SimTime::Days(3);
  options.screening.adaptive_max_period = SimTime::Days(14);
  options.screening.online_fraction_per_day = 0.10;
  return options;
}

// A small, defect-dense fleet on a 6-hour tick with every controller feature on, and a
// controller that crashes and recovers from its journal every 16 ticks.
StudyOptions ControllerStorm(uint64_t seed) {
  StudyOptions options = CliBaseline(seed);
  options.fleet.machine_count = 100;
  options.fleet.mercurial_rate_multiplier = 100.0;
  options.duration = SimTime::Days(120);
  options.tick = SimTime::Hours(6);
  options.work_units_per_core_day = 5;
  options.audit.enabled = true;
  options.control_plane.quorum.enabled = true;
  options.control_plane.probation.enabled = true;
  options.control_plane.max_retries = 2;
  options.control_plane.chaos.drop_report = 0.05;
  options.control_plane.chaos.duplicate_report = 0.05;
  options.control_plane.chaos.delay_report = 0.10;
  options.control_plane.chaos.lying_witness = 0.15;
  options.control_plane.chaos.controller_crash_every_ticks = 16;
  options.trace.enabled = true;
  options.durability.enabled = true;
  return options;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"fleet_year", "screen_heavy",
                                                  "controller_storm"};
  return kNames;
}

bool IsWorkload(const std::string& name) {
  for (const std::string& known : WorkloadNames()) {
    if (known == name) {
      return true;
    }
  }
  return false;
}

StudyOptions MakeStudyOptions(const std::string& workload, uint64_t seed) {
  if (workload == "fleet_year") {
    return FleetYear(seed);
  }
  if (workload == "screen_heavy") {
    return ScreenHeavy(seed);
  }
  if (workload == "controller_storm") {
    return ControllerStorm(seed);
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

}  // namespace studybench
