// Suspicion signals (§6).
//
// The paper lists the automatable "signals" Google exploits: crashes of user processes and
// kernels, machine-check logs, sanitizer reports, and an RPC service through which
// applications report suspect cores. Human-filed suspicions from incident triage arrive as
// user reports. A Signal is one such event, attributed to a (machine, core).

#ifndef MERCURIAL_SRC_DETECT_SIGNAL_H_
#define MERCURIAL_SRC_DETECT_SIGNAL_H_

#include <cstdint>

#include "src/common/sim_time.h"

namespace mercurial {

enum class SignalType : uint8_t {
  kUserReport = 0,   // human-filed suspicion from incident triage
  kAppReport,        // application called the suspect-core RPC service
  kCrash,            // process or kernel crash attributed to the core
  kMachineCheck,     // MCE log entry
  kSanitizer,        // code sanitizer flagged memory corruption
  kScreenFail,       // a screening battery failed on this core
};

inline constexpr int kSignalTypeCount = 6;
constexpr int EnumCount(SignalType) { return kSignalTypeCount; }  // wire range check

const char* SignalTypeName(SignalType type);

struct Signal {
  SimTime time;
  uint64_t machine = 0;
  uint64_t core_global = 0;  // fleet-global core index
  SignalType type = SignalType::kAppReport;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_DETECT_SIGNAL_H_
