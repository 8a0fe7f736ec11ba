// The benchmark's named workloads: each is one FleetStudy configuration, sized so that one
// study takes a few host seconds. README.md says why each exists and which layer it loads.

#ifndef STUDYBENCH_SRC_WORKLOADS_H_
#define STUDYBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/fleet_study.h"

namespace studybench {

const std::vector<std::string>& WorkloadNames();

// True if `name` is one of WorkloadNames().
bool IsWorkload(const std::string& name);

// A run of the benchmark with --seed N cycles through the study seeds
// StudySeed(N, 0) .. StudySeed(N, kStudySeedsPerRun - 1), so its medians average over several
// stochastic histories of the same study, and every lap after the first repeats studies whose
// digests must match. Distinct --seed values give disjoint study seeds.
inline constexpr uint64_t kStudySeedsPerRun = 8;
inline uint64_t StudySeed(uint64_t seed, uint64_t index) {
  return seed * kStudySeedsPerRun + index % kStudySeedsPerRun;
}

// The study options for `workload` under study seed `seed`, which becomes StudyOptions::seed,
// as `mercurialctl study --seed=N` sets it. The fleet is the reference fleet (FleetOptions'
// own seed), as mercurialctl builds it; the seed drives every stochastic stage of the study.
mercurial::StudyOptions MakeStudyOptions(const std::string& workload, uint64_t seed);

}  // namespace studybench

#endif  // STUDYBENCH_SRC_WORKLOADS_H_
