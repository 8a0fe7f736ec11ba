#include "src/sim/core.h"

#include <bit>
#include <cstring>

#include "src/common/logging.h"
#include "src/substrate/checksum.h"
#include "src/telemetry/trace.h"

namespace mercurial {
namespace {

// Operand signature for data-pattern triggers: combines both operands so a trigger can key on
// either; rotation keeps a/b asymmetric.
inline uint64_t Signature(uint64_t a, uint64_t b) { return a ^ std::rotl(b, 1); }

static_assert(kExecUnitCount <= 16, "afflicted_units_ holds one bit per unit");

}  // namespace

const char* ExecUnitName(ExecUnit unit) {
  switch (unit) {
    case ExecUnit::kIntAlu:
      return "int_alu";
    case ExecUnit::kIntMul:
      return "int_mul";
    case ExecUnit::kIntDiv:
      return "int_div";
    case ExecUnit::kLoad:
      return "load";
    case ExecUnit::kStore:
      return "store";
    case ExecUnit::kVector:
      return "vector";
    case ExecUnit::kAes:
      return "aes";
    case ExecUnit::kCrc:
      return "crc";
    case ExecUnit::kCopy:
      return "copy";
    case ExecUnit::kAtomic:
      return "atomic";
    case ExecUnit::kFp:
      return "fp";
  }
  return "unknown";
}

uint64_t CoreCounters::TotalOps() const {
  uint64_t total = 0;
  for (uint64_t n : ops_per_unit) {
    total += n;
  }
  return total;
}

SimCore::SimCore(uint64_t id, Rng rng) : id_(id), rng_(rng) {}

void SimCore::AddDefect(DefectSpec spec) {
  const auto unit_index = static_cast<unsigned>(spec.unit);
  MERCURIAL_CHECK_LT(unit_index, static_cast<unsigned>(kExecUnitCount));
  afflicted_units_ |= static_cast<uint16_t>(1u << unit_index);
  defects_.emplace_back(std::move(spec));
  if (health_slot_ != nullptr) {
    *health_slot_ = 0;
  }
  ++env_revision_;  // the armed lists must pick up the new defect
}

bool SimCore::AnyDefectActive() const {
  const Environment env = CurrentEnvironment();
  for (const Defect& defect : defects_) {
    if (defect.Active(env)) {
      return true;
    }
  }
  return false;
}

SimTime SimCore::EarliestDefectOnset() const {
  MERCURIAL_CHECK(!defects_.empty());
  SimTime earliest = defects_.front().spec().aging.onset;
  for (const Defect& defect : defects_) {
    earliest = std::min(earliest, defect.spec().aging.onset);
  }
  return earliest;
}

double SimCore::UnitFireProbability(ExecUnit unit) const {
  const Environment env = CurrentEnvironment();
  double max_p = 0.0;
  for (const Defect& defect : defects_) {
    if (defect.unit() == unit) {
      max_p = std::max(max_p, defect.FireProbability(env));
    }
  }
  return max_p;
}

Environment SimCore::CurrentEnvironment() const {
  Environment env;
  env.point = point_;
  env.voltage = voltage();
  env.age_years = age_.years();
  return env;
}

void SimCore::RearmDefects() {
  const Environment env = CurrentEnvironment();
  armed_.clear();  // keeps capacity; re-arming is per environment change, not per op
  for (size_t i = 0; i < defects_.size(); ++i) {
    const DefectSpec& spec = defects_[i].spec();
    // A gate that can never pass consumes zero draws on the reference walk too (ShouldFire
    // short-circuits before Bernoulli), so dropping the defect here is stream-neutral.
    if (spec.opcode_mask == 0) {
      continue;  // matches no opcode
    }
    if ((spec.trigger.value & ~spec.trigger.mask) != 0) {
      continue;  // unsatisfiable data trigger: (sig & mask) can never equal value
    }
    const double p = defects_[i].FireProbability(env);
    if (p <= 0.0) {
      continue;  // inactive (pre-onset) or zero-rate in this environment
    }
    armed_.push_back(ArmedDefect{spec.opcode_mask, spec.trigger, p, static_cast<uint16_t>(i),
                                 spec.unit, spec.effect});
  }
  armed_revision_ = env_revision_;
}

template <typename Fire>
void SimCore::WalkGates(const OpInfo& op, Fire&& fire) {
  const bool rcon_op = op.unit == ExecUnit::kAes && op.opcode == kAesOpRcon;
  if (fast_path_) {
    // The armed list keeps defects_ order, excluded defects never drew on the reference walk,
    // and the cached probability is the same double ShouldFire would recompute: the two walks
    // draw from rng_ identically.
    if (armed_revision_ != env_revision_) {
      RearmDefects();
    }
    for (const ArmedDefect& armed : armed_) {
      if (armed.unit != op.unit || (rcon_op && armed.effect != DefectEffect::kRconCorrupt) ||
          (armed.opcode_mask & (1ull << op.opcode)) == 0 ||
          !armed.trigger.Matches(op.operand_signature) || !rng_.Bernoulli(armed.probability)) {
        continue;
      }
      if (fire(defects_[armed.index])) {
        return;
      }
    }
    return;
  }
  const Environment env = CurrentEnvironment();
  for (const Defect& defect : defects_) {
    if (rcon_op && defect.spec().effect != DefectEffect::kRconCorrupt) {
      continue;
    }
    if (defect.ShouldFire(op, env, rng_) && fire(defect)) {
      return;
    }
  }
}

void SimCore::TraceFire(ExecUnit unit, bool machine_check) {
  if (trace_ != nullptr) {
    trace_->Emit(id_, TraceEventKind::kDefectFired,
                 machine_check ? TraceCause::kMachineCheck : TraceCause::kCorruption,
                 static_cast<uint64_t>(unit));
  }
}

void SimCore::Dispatch(const OpInfo& op, uint8_t* result, size_t size) {
  ++counters_.ops_per_unit[static_cast<size_t>(op.unit)];
  if (!Afflicted(op.unit)) {
    return;
  }
  WalkGates(op, [&](const Defect& defect) {
    const double machine_check_fraction = defect.spec().machine_check_fraction;
    if (machine_check_fraction > 0.0 && rng_.Bernoulli(machine_check_fraction)) {
      pending_machine_check_ = true;
      ++counters_.machine_checks;
      TraceFire(op.unit, /*machine_check=*/true);
      return false;
    }
    defect.CorruptBytes(op, result, size, rng_);
    ++counters_.corruptions;
    TraceFire(op.unit, /*machine_check=*/false);
    return false;
  });
}

uint64_t SimCore::Alu(AluOp op, uint64_t a, uint64_t b) {
  uint64_t result = 0;
  switch (op) {
    case AluOp::kAdd:
      result = a + b;
      break;
    case AluOp::kSub:
      result = a - b;
      break;
    case AluOp::kAnd:
      result = a & b;
      break;
    case AluOp::kOr:
      result = a | b;
      break;
    case AluOp::kXor:
      result = a ^ b;
      break;
    case AluOp::kShl:
      result = a << (b & 63);
      break;
    case AluOp::kShr:
      result = a >> (b & 63);
      break;
    case AluOp::kRotl:
      result = std::rotl(a, static_cast<int>(b & 63));
      break;
  }
  Dispatch({ExecUnit::kIntAlu, static_cast<uint8_t>(op), Signature(a, b)},
           reinterpret_cast<uint8_t*>(&result), sizeof(result));
  return result;
}

uint64_t SimCore::Mul(uint64_t a, uint64_t b) {
  uint64_t result = a * b;
  Dispatch({ExecUnit::kIntMul, kMulOp, Signature(a, b)}, reinterpret_cast<uint8_t*>(&result),
           sizeof(result));
  return result;
}

uint64_t SimCore::Div(uint64_t a, uint64_t b) {
  if (b == 0) {
    // The op still issued to the divider; count it even though the machine-check path skips
    // Dispatch (which would otherwise do the accounting).
    ++counters_.ops_per_unit[static_cast<size_t>(ExecUnit::kIntDiv)];
    pending_machine_check_ = true;
    ++counters_.machine_checks;
    TraceFire(ExecUnit::kIntDiv, /*machine_check=*/true);
    return ~0ull;
  }
  uint64_t result = a / b;
  Dispatch({ExecUnit::kIntDiv, kDivOp, Signature(a, b)}, reinterpret_cast<uint8_t*>(&result),
           sizeof(result));
  return result;
}

uint64_t SimCore::Load(uint64_t value) {
  uint64_t result = value;
  Dispatch({ExecUnit::kLoad, kMemOpWord, value}, reinterpret_cast<uint8_t*>(&result),
           sizeof(result));
  return result;
}

uint64_t SimCore::Store(uint64_t value) {
  uint64_t result = value;
  Dispatch({ExecUnit::kStore, kMemOpWord, value}, reinterpret_cast<uint8_t*>(&result),
           sizeof(result));
  return result;
}

Vec128 SimCore::Vector(VecOp op, Vec128 a, Vec128 b) {
  Vec128 result;
  switch (op) {
    case VecOp::kXor:
      result = {a.lo ^ b.lo, a.hi ^ b.hi};
      break;
    case VecOp::kAnd:
      result = {a.lo & b.lo, a.hi & b.hi};
      break;
    case VecOp::kOr:
      result = {a.lo | b.lo, a.hi | b.hi};
      break;
    case VecOp::kAdd64:
      result = {a.lo + b.lo, a.hi + b.hi};
      break;
    case VecOp::kSub64:
      result = {a.lo - b.lo, a.hi - b.hi};
      break;
  }
  Dispatch({ExecUnit::kVector, static_cast<uint8_t>(op), Signature(a.lo ^ a.hi, b.lo ^ b.hi)},
           reinterpret_cast<uint8_t*>(&result), sizeof(result));
  return result;
}

double SimCore::Fp(FpOp op, double a, double b) {
  double result = 0.0;
  switch (op) {
    case FpOp::kAdd:
      result = a + b;
      break;
    case FpOp::kSub:
      result = a - b;
      break;
    case FpOp::kMul:
      result = a * b;
      break;
    case FpOp::kDiv:
      result = a / b;
      break;
  }
  uint64_t a_bits;
  uint64_t b_bits;
  std::memcpy(&a_bits, &a, 8);
  std::memcpy(&b_bits, &b, 8);
  Dispatch({ExecUnit::kFp, static_cast<uint8_t>(op), Signature(a_bits, b_bits)},
           reinterpret_cast<uint8_t*>(&result), sizeof(result));
  return result;
}

AesBlock SimCore::AesEnc(const AesBlock& state, const AesBlock& round_key, bool last) {
  AesBlock result = AesEncRound(state, round_key, last);
  uint64_t sig;
  std::memcpy(&sig, state.data(), 8);
  Dispatch({ExecUnit::kAes, kAesOpEncRound, sig}, result.data(), result.size());
  return result;
}

AesBlock SimCore::AesDec(const AesBlock& state, const AesBlock& round_key, bool last) {
  AesBlock result = AesDecRound(state, round_key, last);
  uint64_t sig;
  std::memcpy(&sig, state.data(), 8);
  Dispatch({ExecUnit::kAes, kAesOpDecRound, sig}, result.data(), result.size());
  return result;
}

uint8_t SimCore::AesRcon(int round) {
  uint8_t rcon = StandardAesRcon(round);
  ++counters_.ops_per_unit[static_cast<size_t>(ExecUnit::kAes)];
  if (!Afflicted(ExecUnit::kAes)) {
    return rcon;
  }
  WalkGates({ExecUnit::kAes, kAesOpRcon, static_cast<uint64_t>(round)},
            [&](const Defect& defect) {
              rcon = defect.CorruptRcon(rcon);
              ++counters_.corruptions;
              TraceFire(ExecUnit::kAes, /*machine_check=*/false);
              return false;
            });
  return rcon;
}

AesKeySchedule SimCore::ExpandKey(const uint8_t key[kAesKeyBytes]) {
  return ExpandAesKey(key, [this](int round) { return AesRcon(round); });
}

uint32_t SimCore::Crc32Block(uint32_t crc, const uint8_t* data, size_t n) {
  uint32_t result = crc;
  for (size_t i = 0; i < n; ++i) {
    result = Crc32Update(result, data[i]);
  }
  uint64_t sig = n == 0 ? 0 : Signature(data[0], n);
  Dispatch({ExecUnit::kCrc, kCrcOpBlock, sig}, reinterpret_cast<uint8_t*>(&result),
           sizeof(result));
  return result;
}

void SimCore::Copy(uint8_t* dst, const uint8_t* src, size_t n) {
  if (!Afflicted(ExecUnit::kCopy)) {
    counters_.ops_per_unit[static_cast<size_t>(ExecUnit::kCopy)] += (n + 7) / 8;
    std::memmove(dst, src, n);
    return;
  }
  for (size_t offset = 0; offset < n; offset += 8) {
    const size_t chunk = std::min<size_t>(8, n - offset);
    uint8_t buffer[8];
    std::memcpy(buffer, src + offset, chunk);
    uint64_t sig = 0;
    std::memcpy(&sig, buffer, chunk);
    Dispatch({ExecUnit::kCopy, kCopyOpChunk, sig}, buffer, chunk);
    std::memcpy(dst + offset, buffer, chunk);
  }
}

bool SimCore::Cas(uint64_t& target, uint64_t expected, uint64_t desired) {
  ++counters_.ops_per_unit[static_cast<size_t>(ExecUnit::kAtomic)];
  const bool would_succeed = target == expected;
  bool faulted = false;
  if (Afflicted(ExecUnit::kAtomic)) {
    // Every gate that passes draws, even when its effect then does not apply to this CAS
    // outcome; the first effect that applies ends the op.
    WalkGates({ExecUnit::kAtomic, kAtomicOpCas, Signature(expected, desired)},
              [&](const Defect& defect) {
                const DefectEffect effect = defect.spec().effect;
                if (effect == DefectEffect::kCasDropStore && would_succeed) {
                  // Lock appears acquired/updated but memory never changed.
                } else if (effect == DefectEffect::kCasPhantomStore && !would_succeed) {
                  target = desired;  // the store happens even though the compare failed
                } else {
                  return false;
                }
                faulted = true;
                ++counters_.corruptions;
                TraceFire(ExecUnit::kAtomic, /*machine_check=*/false);
                return true;
              });
  }
  if (would_succeed && !faulted) {
    target = desired;
  }
  return would_succeed;
}

bool SimCore::TakePendingMachineCheck() {
  const bool pending = pending_machine_check_;
  pending_machine_check_ = false;
  return pending;
}

}  // namespace mercurial
