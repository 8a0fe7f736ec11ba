// Pinned study digests (see digest.h), per workload and study seed: the study seeds of
// --seed 1, which the workloads were tuned on, and of --seed 7, held out. A study of a pinned
// (workload, study seed) whose digest differs counts as failed. Regenerate with
// `studybench --digest <workload> --seed N` only when a change is meant to move the study's
// output, and say so in CHANGES.md.

#ifndef STUDYBENCH_SRC_PINNED_H_
#define STUDYBENCH_SRC_PINNED_H_

#include <cstdint>

namespace studybench {

struct PinnedDigest {
  const char* workload;
  uint64_t study_seed;
  uint64_t digest;
};

inline constexpr PinnedDigest kPinnedDigests[] = {
    {"fleet_year", 8, 0x8c77c21eca14a084ull},
    {"fleet_year", 9, 0xf5f0f5a98fa5eee4ull},
    {"fleet_year", 10, 0xc667f28de68a7feeull},
    {"fleet_year", 11, 0xc315fa1edb53f0f6ull},
    {"fleet_year", 12, 0xd3a3cb66a8a2fde0ull},
    {"fleet_year", 13, 0x8404c88e2ce1da1full},
    {"fleet_year", 14, 0x6d90c5c02e32f726ull},
    {"fleet_year", 15, 0xf39653cddb63603full},
    {"fleet_year", 56, 0x48f72956e358df02ull},
    {"fleet_year", 57, 0xaa51bf29f4cfeacfull},
    {"fleet_year", 58, 0xeb7e5a6e7b9c9833ull},
    {"fleet_year", 59, 0xa916a7a39d7135bdull},
    {"fleet_year", 60, 0xf5a24dd673a1d009ull},
    {"fleet_year", 61, 0x6f930990b9caaa8aull},
    {"fleet_year", 62, 0x2f188570335c154eull},
    {"fleet_year", 63, 0xdf3315b9fd3b61cdull},
    {"screen_heavy", 8, 0xed3a365daac78ee4ull},
    {"screen_heavy", 9, 0xb708bec9ef759d8dull},
    {"screen_heavy", 10, 0xcbb1a5f088674f87ull},
    {"screen_heavy", 11, 0x64c772e2a543332cull},
    {"screen_heavy", 12, 0x18f023203aef4362ull},
    {"screen_heavy", 13, 0x20c4d91136a43640ull},
    {"screen_heavy", 14, 0x8d13bea654f28f2dull},
    {"screen_heavy", 15, 0x1b21f4d35b8dc4eaull},
    {"screen_heavy", 56, 0x4b3158894d569d7full},
    {"screen_heavy", 57, 0x4f48e49e58e596ddull},
    {"screen_heavy", 58, 0xf19849ae9955960dull},
    {"screen_heavy", 59, 0x49eb7fadf09e0253ull},
    {"screen_heavy", 60, 0x920470c1ee8d6bfbull},
    {"screen_heavy", 61, 0x4a175b8ffc779c13ull},
    {"screen_heavy", 62, 0x4f856d0bbafbc2c0ull},
    {"screen_heavy", 63, 0xea38695c6043026dull},
    {"controller_storm", 8, 0xe69cc1dad76320d1ull},
    {"controller_storm", 9, 0x20b55adaa68f1ae8ull},
    {"controller_storm", 10, 0x4d3916d16b883e6eull},
    {"controller_storm", 11, 0x598b5a7b0f59ac4dull},
    {"controller_storm", 12, 0xd0e0c57fb3712efaull},
    {"controller_storm", 13, 0xd37685f98b6766a8ull},
    {"controller_storm", 14, 0x0e17dcf76d948a67ull},
    {"controller_storm", 15, 0x0cd0fe190839c291ull},
    {"controller_storm", 56, 0xe7f3ae6aec19966bull},
    {"controller_storm", 57, 0x032148678f6ebf9cull},
    {"controller_storm", 58, 0x1ac8fe4994716834ull},
    {"controller_storm", 59, 0x38519d6c46c3c499ull},
    {"controller_storm", 60, 0xb6b52938239dec1dull},
    {"controller_storm", 61, 0x3167880f2df26175ull},
    {"controller_storm", 62, 0x397a7b0b6f21b9cfull},
    {"controller_storm", 63, 0xfbe63099ee7cb887ull},
};

}  // namespace studybench

#endif  // STUDYBENCH_SRC_PINNED_H_
