#include "src/core/study_flags.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "src/common/logging.h"
#include "src/common/wire.h"

namespace mercurial {
namespace {

template <typename T>
using Field = T& (*)(StudyOptions&);
// A SimTime field set in days. With `enabled`, a value <= 0 clears that switch instead.
struct Days {
  Field<SimTime> field;
  Field<bool> enabled = nullptr;
};
// A uint64 field that takes any integer; a negative one keeps its bit pattern (the seed).
struct Bits64 {
  Field<uint64_t> field;
};
static_assert(std::is_same_v<size_t, uint64_t>, "size_t fields bind as Field<uint64_t>");

// One flag: its name, the field it sets (through a Field accessor, or a Days or Bits64
// conversion), and its help text.
struct StudyFlag {
  const char* name;
  std::variant<Field<bool>, Field<int>, Field<uint64_t>, Field<double>, Field<std::string>, Days,
               Bits64>
      field;
  const char* help;
};

template <typename... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};

#define F(path) +[](StudyOptions& o) -> auto& { return o.path; }

const StudyFlag kStudyFlags[] = {
    {"machines", F(fleet.machine_count), "fleet size in machines"},
    {"days", Days{F(duration)}, "simulated study duration"},
    {"seed", Bits64{F(seed)}, "master seed (fixes the whole study)"},
    {"multiplier", F(fleet.mercurial_rate_multiplier),
     "mercurial-core rate multiplier over product rates"},
    {"work-units", F(work_units_per_core_day), "work units per busy core-day"},
    {"screening-period", Days{F(screening.offline_period), F(screening.offline_enabled)},
     "offline screening cadence in days (0 = disabled)"},
    {"screen-adaptive", F(screening.adaptive),
     "risk-adaptive offline screening: score due cores (report evidence, screen-fail "
     "recidivism, probation, age, operating-point stress, coverage gaps) and spend the ops "
     "budget riskiest-first"},
    {"screen-budget-ops-per-day", F(screening.budget_ops_per_day),
     "adaptive screening budget in battery micro-ops per day (0 = unmetered)"},
    {"screen-risk-min-period-days", Days{F(screening.adaptive_min_period)},
     "adaptive cadence floor for the riskiest cores"},
    {"screen-risk-max-period-days", Days{F(screening.adaptive_max_period)},
     "adaptive cadence ceiling for pristine cores"},
    {"screen-risk-warm", F(screening.risk_warm), "risk at or above this doubles the battery depth"},
    {"screen-risk-hot", F(screening.risk_hot),
     "risk at or above this quadruples the battery depth"},
    {"burn-in", F(burn_in), "screen every core once before production"},
    {"threads", F(threads), "worker threads for the sharded parallel engine"},
    {"shards", F(shards),
     "random-stream shards; part of the experiment identity — results depend on shards, never "
     "threads"},
    {"quarantine-queue", F(control_plane.max_pending),
     "max suspects resident in the quarantine pipeline (0 = unbounded)"},
    {"quarantine-retries", F(control_plane.max_retries),
     "extra interrogation attempts for non-confessing suspects"},
    {"quarantine-backoff-days", Days{F(control_plane.retry_backoff)}, "base retry backoff in days"},
    {"quarantine-budget", F(control_plane.quarantine_budget_fraction),
     "max fraction of cores draining+quarantined at once (1.0 = no guardrail)"},
    {"chaos-drop", F(control_plane.chaos.drop_report), "P(suspect report lost in flight)"},
    {"chaos-dup", F(control_plane.chaos.duplicate_report), "P(suspect report delivered twice)"},
    {"chaos-delay", F(control_plane.chaos.delay_report), "P(suspect report delivered late)"},
    {"chaos-delay-days", Days{F(control_plane.chaos.report_delay_mean)},
     "mean delivery delay for delayed reports"},
    {"chaos-abort", F(control_plane.chaos.abort_interrogation),
     "P(interrogation battery preempted mid-run)"},
    {"chaos-restarts", F(control_plane.chaos.machine_restart_per_day),
     "machine crash-restart rate per machine-day (resets in-flight quarantines)"},
    {"quorum", F(control_plane.quorum.enabled),
     "judge each interrogation battery by a quorum of witness cores"},
    {"quorum-witnesses", F(control_plane.quorum.witnesses), "initial quorum size"},
    {"quorum-max-escalations", F(control_plane.quorum.max_escalations),
     "wider quorums (2W+1) convened after split votes before falling back"},
    {"quorum-witness-error", F(control_plane.quorum.witness_error_rate),
     "P(a mercurial witness with an active defect misreads the battery)"},
    {"quorum-strong-agreement", F(control_plane.quorum.strong_agreement),
     "agreement below this marks the conviction's evidence weak (1.0 = only unanimity is "
     "strong)"},
    {"probation", F(control_plane.probation.enabled),
     "weak-evidence convictions enter restricted service + shadow screening instead of "
     "terminal retirement"},
    {"probation-window-days", Days{F(control_plane.probation.window)},
     "shadow-screen cadence in days"},
    {"probation-clean-windows", F(control_plane.probation.clean_windows_to_reinstate),
     "clean windows before reinstatement"},
    {"probation-weak-attempts", F(control_plane.probation.weak_after_attempts),
     "confessions needing more interrogation attempts than this are weak evidence (0 = off)"},
    {"chaos-lying-witness", F(control_plane.chaos.lying_witness),
     "P(a cast witness vote — or the lone tester's verdict — is flipped)"},
    {"chaos-witness-crash", F(control_plane.chaos.witness_crash),
     "P(a witness crashes mid-vote, casting none)"},
    {"chaos-probation-suppress", F(control_plane.chaos.probation_suppress),
     "P(a probation shadow-screen confession is swallowed in flight)"},
    {"audit", F(audit.enabled), "blast-radius auditing + retroactive repair after conviction"},
    {"audit-repair-budget", F(audit.repair_budget_per_tick),
     "max artifacts re-verified/re-executed per tick"},
    {"audit-retries", F(audit.max_attempts), "repair passes per suspect epoch before abandoning"},
    {"audit-backoff-days", Days{F(audit.retry_backoff)}, "base repair retry backoff in days"},
    {"audit-lookback-days", Days{F(audit.max_lookback)},
     "max suspect window behind a conviction, in days"},
    {"audit-onset-margin-days", Days{F(audit.onset_margin)},
     "margin before the first signal in the defect-onset estimate, in days"},
    {"audit-backlog", F(audit.max_backlog_artifacts),
     "max queued suspect artifacts before lowest-risk epochs are shed"},
    {"chaos-repair-fail", F(audit.chaos.repair_fail_reverify),
     "P(repair re-verification misses a corruption)"},
    {"chaos-repair-defective", F(audit.chaos.repair_on_defective),
     "P(repair pass forced onto a defective executor)"},
    {"chaos-repair-partial", F(audit.chaos.repair_partial), "P(repair pass preempted mid-epoch)"},
    {"trace", F(trace.enabled), "record the incident flight recorder and print per-core timelines"},
    {"trace-ring-capacity", F(trace.ring_capacity), "flight-recorder slots per shard ring"},
    {"durable", F(durability.enabled),
     "arm the write-ahead journal + snapshots for the controller state (in memory; --journal "
     "adds a write-through file)"},
    {"journal", F(durability.journal_path),
     "write-through journal file (implies --durable); replay it with `mercurialctl recover "
     "--journal=PATH`"},
    {"snapshot-every", F(durability.snapshot_every),
     "ticks between full journal snapshots (0 = initial snapshot only)"},
    {"chaos-controller-crash-every", F(control_plane.chaos.controller_crash_every_ticks),
     "kill + recover the controller from the journal every K ticks (0 = off; implies --durable)"},
    {"chaos-controller-crash", F(control_plane.chaos.controller_crash_per_day),
     "controller crash rate per day, at chaos-chosen ticks (implies --durable)"},
    {"chaos-journal-torn-tail", F(control_plane.chaos.journal_torn_tail),
     "P(a controller crash also tears bytes off the journal tail)"},
    {"chaos-journal-bit-flip", F(control_plane.chaos.journal_bit_flip),
     "P(a controller crash also flips one bit in the journal tail)"},
};

#undef F

Status OutOfRange(const std::string& name) {
  return InvalidArgumentError("flag --" + name + " is out of range for its field");
}

// Sets `flag`'s field in `*options` from its parsed value in `flags`.
Status ApplyFlag(const StudyFlag& flag, const FlagSet& flags, StudyOptions* options) {
  const auto set = [](auto& field, auto value) {
    field = value;
    return Status::Ok();
  };
  const std::string name = flag.name;
  return std::visit(
      Overloaded{
          [&](Field<bool> f) { return set(f(*options), flags.GetBool(name)); },
          [&](Field<uint64_t> f) { return set(f(*options), flags.GetUint(name)); },
          [&](Field<double> f) { return set(f(*options), flags.GetDouble(name)); },
          [&](Field<std::string> f) { return set(f(*options), flags.GetString(name)); },
          [&](Bits64 b) {
            return set(b.field(*options), static_cast<uint64_t>(flags.GetInt(name)));
          },
          [&](Field<int> f) {
            const int64_t value = flags.GetInt(name);
            return value < std::numeric_limits<int>::min() ||
                           value > std::numeric_limits<int>::max()
                       ? OutOfRange(name)
                       : set(f(*options), static_cast<int>(value));
          },
          [&](Days d) {
            // Checked before the cast: NaN, infinities and doubles outside int64 are
            // undefined behaviour when converted.
            const double days = flags.GetDouble(name);
            if (!(std::fabs(days * 86400.0) < 0x1p63)) {
              return OutOfRange(name);
            }
            if (d.enabled != nullptr && !(d.enabled(*options) = days > 0)) {
              return Status::Ok();  // switched off; the period keeps its default
            }
            return set(d.field(*options), SimTime::Seconds(static_cast<int64_t>(days * 86400)));
          },
      },
      flag.field);
}

}  // namespace

StudyOptions CliStudyDefaults() {
  StudyOptions options;
  options.fleet.machine_count = 500;
  options.duration = SimTime::Days(365);
  options.fleet.mercurial_rate_multiplier = 25.0;
  options.work_units_per_core_day = 20;
  options.workload.payload_bytes = 256;
  options.shards = 8;
  return options;
}

void DefineStudyOptionFlags(FlagSet& flags, StudyOptions defaults) {
  for (const StudyFlag& flag : kStudyFlags) {
    const char* name = flag.name;
    const char* help = flag.help;
    std::visit(
        Overloaded{
            [&](Field<bool> f) { flags.DefineBool(name, f(defaults), help); },
            [&](Field<int> f) { flags.DefineInt(name, f(defaults), help); },
            [&](Field<uint64_t> f) { flags.DefineUint(name, f(defaults), help); },
            [&](Field<double> f) { flags.DefineDouble(name, f(defaults), help); },
            [&](Field<std::string> f) { flags.DefineString(name, f(defaults), help); },
            [&](Days d) {
              const bool off = d.enabled != nullptr && !d.enabled(defaults);
              flags.DefineDouble(name, off ? 0.0 : d.field(defaults).days(), help);
            },
            [&](Bits64 b) { flags.DefineInt(name, static_cast<int64_t>(b.field(defaults)), help); },
        },
        flag.field);
  }
}

Status StudyOptionsFromFlags(const FlagSet& flags, StudyOptions* out) {
  StudyOptions options = CliStudyDefaults();
  for (const StudyFlag& flag : kStudyFlags) {
    if (Status status = ApplyFlag(flag, flags, &options); !status.ok()) {
      return status;
    }
  }
  *out = std::move(options);
  return Status::Ok();
}

Status ApplyStudyFlag(const FlagSet& flags, const std::string& name, StudyOptions* options) {
  const auto* flag = std::find_if(std::begin(kStudyFlags), std::end(kStudyFlags),
                                  [&](const StudyFlag& f) { return name == f.name; });
  MERCURIAL_CHECK(flag != std::end(kStudyFlags)) << "--" << name << " is not a study flag";
  return ApplyFlag(*flag, flags, options);
}

std::vector<uint8_t> EncodeArgvManifest(int argc, const char* const* argv) {
  std::vector<uint8_t> bytes;
  ByteWriter w(bytes);
  w.PutU32(static_cast<uint32_t>(argc));
  for (int i = 0; i < argc; ++i) {
    w.PutBlob({reinterpret_cast<const uint8_t*>(argv[i]), std::strlen(argv[i])});
  }
  return bytes;
}

Status DecodeArgvManifest(const std::vector<uint8_t>& bytes, std::vector<std::string>* out) {
  ByteReader r(bytes.data(), bytes.size());
  std::vector<std::string> args(r.Count(4));
  for (std::string& arg : args) {
    const std::span<const uint8_t> chars = r.Blob().bytes();
    r.Check(std::find(chars.begin(), chars.end(), 0) == chars.end(),
            "manifest argv entry holds a NUL byte");
    arg.assign(chars.begin(), chars.end());
  }
  if (Status s = r.Finish(); !s.ok()) {
    return s;
  }
  *out = std::move(args);
  return Status::Ok();
}

}  // namespace mercurial
