// Execution units of the simulated core.
//
// §5 of the paper observes that CPUs are "gradually becoming sets of discrete accelerators
// around a shared register file", which is why CEEs are often confined to one unit while the
// rest of the core stays correct (e.g. the shared logic between data-copy and vector
// operations). The simulator models a core as a bundle of named units; defects attach to a
// unit, and workloads differ in which units they exercise — that mapping is what makes
// "seemingly-minor software changes cause large shifts in reliability" reproducible.

#ifndef MERCURIAL_SRC_SIM_EXEC_UNIT_H_
#define MERCURIAL_SRC_SIM_EXEC_UNIT_H_

#include <cstdint>

namespace mercurial {

enum class ExecUnit : uint8_t {
  kIntAlu = 0,   // add/sub/logic/shift
  kIntMul,       // integer multiply
  kIntDiv,       // integer divide
  kLoad,         // memory load path
  kStore,        // memory store path
  kVector,       // SIMD lanes
  kAes,          // AES rounds and key expansion (shares silicon with kVector on some products)
  kCrc,          // CRC/checksum acceleration
  kCopy,         // bulk data-copy engine (rep-movs analog; shares silicon with kVector)
  kAtomic,       // compare-and-swap / lock semantics
  kFp,           // floating point
};

inline constexpr int kExecUnitCount = 11;
constexpr int EnumCount(ExecUnit) { return kExecUnitCount; }  // wire range check

const char* ExecUnitName(ExecUnit unit);

// Scalar ALU opcodes.
enum class AluOp : uint8_t { kAdd, kSub, kAnd, kOr, kXor, kShl, kShr, kRotl };

// 128-bit SIMD value (two 64-bit lanes).
struct Vec128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const Vec128&) const = default;
};

enum class VecOp : uint8_t { kXor, kAnd, kOr, kAdd64, kSub64 };

enum class FpOp : uint8_t { kAdd, kSub, kMul, kDiv };

// Identity of a micro-op as seen by defect triggers: the unit it dispatched to, a
// unit-specific opcode, and a mixed signature of its operands (for data-pattern triggers).
struct OpInfo {
  ExecUnit unit;
  uint8_t opcode = 0;
  uint64_t operand_signature = 0;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_SIM_EXEC_UNIT_H_
