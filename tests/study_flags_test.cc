// Tests for the study-options table (src/core/study_flags.h) and StudyOptions::Validate().

#include "src/core/study_flags.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/wire.h"
#include "studybench/src/workloads.h"

namespace mercurial {
namespace {

// Every study flag's default as FlagSet::Usage() prints it, keyed by flag name, with the
// defaults read back from `options`.
std::map<std::string, std::string> FlagDefaults(const StudyOptions& options) {
  FlagSet flags;
  DefineStudyOptionFlags(flags, options);
  std::map<std::string, std::string> defaults;
  std::istringstream usage(flags.Usage());
  for (std::string line; std::getline(usage, line);) {
    const size_t open = line.find(" (default: ");
    if (line.rfind("  --", 0) == 0 && open != std::string::npos) {
      defaults[line.substr(4, open - 4)] = line.substr(open + 11, line.size() - open - 12);
    }
  }
  return defaults;
}

// A flag value that differs from `value`, of the same type.
std::string Changed(const std::string& value) {
  if (value == "true" || value == "false") {
    return value == "true" ? "false" : "true";
  }
  if (value.empty() || value.find_first_not_of("-0123456789.e+") != std::string::npos) {
    return value + "x";
  }
  if (value.find_first_of(".e") == std::string::npos) {
    return std::to_string(std::stoll(value) + 1);
  }
  char text[48];
  std::snprintf(text, sizeof(text), "%g", std::stod(value) + 1.0);
  return text;
}

Status ParseStudyArgs(const std::vector<std::string>& args, StudyOptions* options) {
  FlagSet flags;
  DefineStudyOptionFlags(flags);
  std::vector<const char*> argv = {"study"};
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  if (Status bad = flags.Parse(static_cast<int>(argv.size()), argv.data()); !bad.ok()) {
    return bad;
  }
  return StudyOptionsFromFlags(flags, options);
}

TEST(StudyFlagsTest, EmptyArgvYieldsCliDefaults) {
  StudyOptions parsed;
  ASSERT_TRUE(ParseStudyArgs({}, &parsed).ok());
  const std::map<std::string, std::string> defaults = FlagDefaults(CliStudyDefaults());
  const std::map<std::string, std::string> cli_values = {
      {"machines", "500"}, {"days", "365"}, {"multiplier", "25"}, {"work-units", "20"},
      {"shards", "8"},     {"seed", "42"},  {"screening-period", "45"}};
  for (const auto& [name, value] : cli_values) {
    EXPECT_EQ(defaults.at(name), value) << name;
  }
  EXPECT_EQ(FlagDefaults(parsed), defaults);
  EXPECT_EQ(parsed.workload.payload_bytes, CliStudyDefaults().workload.payload_bytes);
}

TEST(StudyFlagsTest, EachFlagSetsOnlyItsOwnField) {
  const std::map<std::string, std::string> defaults = FlagDefaults(CliStudyDefaults());
  for (const auto& [name, value] : defaults) {
    const std::string changed = Changed(value);
    StudyOptions parsed;
    ASSERT_TRUE(ParseStudyArgs({"--" + name + "=" + changed}, &parsed).ok()) << name;
    for (const auto& [other, read_back] : FlagDefaults(parsed)) {
      EXPECT_EQ(read_back, other == name ? changed : defaults.at(other))
          << "--" << name << "=" << changed << ", read back through --" << other;
    }
  }
}

TEST(StudyFlagsTest, RefusesValuesTheFieldCannotHold) {
  for (const char* arg :
       {"--machines=-1", "--work-units=-1", "--quarantine-queue=-1", "--audit-repair-budget=-1",
        "--audit-backlog=-1", "--screen-budget-ops-per-day=-1", "--trace-ring-capacity=-1",
        "--snapshot-every=-1", "--audit-lookback-days=nan", "--quarantine-backoff-days=1e300",
        "--chaos-delay-days=-inf", "--screening-period=nan", "--days=200000000000000",
        "--shards=4294967297"}) {
    StudyOptions parsed;
    EXPECT_EQ(ParseStudyArgs({arg}, &parsed).code(), StatusCode::kInvalidArgument) << arg;
  }
}

TEST(StudyFlagsTest, SeedKeepsNegativeBitsAndZeroPeriodDisablesScreening) {
  StudyOptions parsed;
  ASSERT_TRUE(ParseStudyArgs({"--seed=-1", "--screening-period=0"}, &parsed).ok());
  EXPECT_EQ(parsed.seed, std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(parsed.screening.offline_enabled);
  EXPECT_EQ(parsed.screening.offline_period, CliStudyDefaults().screening.offline_period);
}

TEST(StudyOptionsValidateTest, AcceptsDefaultsAndBenchmarkConfigs) {
  EXPECT_TRUE(StudyOptions{}.Validate().ok());
  EXPECT_TRUE(CliStudyDefaults().Validate().ok());
  for (const std::string& workload : studybench::WorkloadNames()) {
    const Status status = studybench::MakeStudyOptions(workload, 1).Validate();
    EXPECT_TRUE(status.ok()) << workload << ": " << status.ToString();
  }
}

TEST(StudyOptionsValidateTest, RejectsEachOutOfRangeOption) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, std::function<void(StudyOptions&)>>> cases = {
      {"machine_count", [](StudyOptions& o) { o.fleet.machine_count = 0; }},
      {"duration", [](StudyOptions& o) { o.duration = SimTime::Seconds(-1); }},
      {"tick must be positive", [](StudyOptions& o) { o.tick = SimTime::Seconds(0); }},
      {"shards", [](StudyOptions& o) { o.shards = 0; }},
      {"threads", [](StudyOptions& o) { o.threads = 0; }},
      {"mercurial_rate_multiplier",
       [&](StudyOptions& o) { o.fleet.mercurial_rate_multiplier = inf; }},
      {"mercurial_rate_multiplier",
       [](StudyOptions& o) { o.fleet.mercurial_rate_multiplier = -1; }},
      {"app_report_probability", [&](StudyOptions& o) { o.app_report_probability = nan; }},
      {"sanitizer_probability", [](StudyOptions& o) { o.sanitizer_probability = 1.5; }},
      {"crash_human_report_probability",
       [](StudyOptions& o) { o.crash_human_report_probability = -0.1; }},
      {"silent_human_notice_probability",
       [](StudyOptions& o) { o.silent_human_notice_probability = 2.0; }},
      {"mca_bank_confusion", [](StudyOptions& o) { o.mca_bank_confusion = -1.0; }},
      {"check_probability", [&](StudyOptions& o) { o.workload.check_probability = nan; }},
      {"late_check_fraction", [](StudyOptions& o) { o.workload.late_check_fraction = 1.01; }},
      {"background_signal_rate",
       [&](StudyOptions& o) { o.background_signal_rate_per_core_day = nan; }},
      {"human_report_mean_delay",
       [](StudyOptions& o) { o.human_report_mean_delay = SimTime::Seconds(0); }},
      // The composed validators still run.
      {"online_fraction_per_day",
       [](StudyOptions& o) { o.screening.online_fraction_per_day = 2; }},
      {"quarantine_budget_fraction",
       [](StudyOptions& o) { o.control_plane.quarantine_budget_fraction = 0; }},
      {"repair", [](StudyOptions& o) { o.audit.max_lookback = SimTime::Seconds(-1); }},
      {"ring_capacity", [](StudyOptions& o) { o.trace.ring_capacity = 0; }},
  };
  for (const auto& [message, mutate] : cases) {
    StudyOptions options = CliStudyDefaults();
    mutate(options);
    const Status status = options.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << message;
    EXPECT_NE(status.message().find(message), std::string::npos) << status.ToString();
  }
}

TEST(StudyOptionsValidateTest, ZeroDurationAndThreadsAboveShardsStayLegal) {
  StudyOptions options = CliStudyDefaults();
  options.duration = SimTime::Seconds(0);
  options.shards = 4;
  options.threads = 64;
  EXPECT_TRUE(options.Validate().ok());
}

// The argv manifest a journal records for `recover`.
const char* const kManifestArgv[] = {"mercurialctl", "study", "--machines=60", "", "--seed=7"};
constexpr int kManifestArgc = 5;

TEST(ArgvManifestTest, RoundTrips) {
  const std::vector<uint8_t> bytes = EncodeArgvManifest(kManifestArgc, kManifestArgv);
  std::vector<std::string> decoded;
  ASSERT_TRUE(DecodeArgvManifest(bytes, &decoded).ok());
  EXPECT_EQ(decoded, std::vector<std::string>(kManifestArgv, kManifestArgv + kManifestArgc));

  ASSERT_TRUE(DecodeArgvManifest(EncodeArgvManifest(0, nullptr), &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(ArgvManifestTest, EveryTruncationIsDataLoss) {
  const std::vector<uint8_t> bytes = EncodeArgvManifest(kManifestArgc, kManifestArgv);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::string> decoded;
    const std::vector<uint8_t> clipped(bytes.begin(), bytes.begin() + len);
    EXPECT_EQ(DecodeArgvManifest(clipped, &decoded).code(), StatusCode::kDataLoss) << len;
  }
}

TEST(ArgvManifestTest, TrailingByteIsDataLoss) {
  std::vector<uint8_t> bytes = EncodeArgvManifest(kManifestArgc, kManifestArgv);
  bytes.push_back(0);
  std::vector<std::string> decoded;
  EXPECT_EQ(DecodeArgvManifest(bytes, &decoded).code(), StatusCode::kDataLoss);
}

TEST(ArgvManifestTest, EntryLengthBeyondThePayloadIsDataLoss) {
  std::vector<uint8_t> bytes;
  ByteWriter w(bytes);
  w.PutU32(1);
  w.PutU32(100);  // the entry claims 100 bytes; 3 follow
  w.PutBytes(std::vector<uint8_t>{'a', 'b', 'c'});
  std::vector<std::string> decoded;
  EXPECT_EQ(DecodeArgvManifest(bytes, &decoded).code(), StatusCode::kDataLoss);

  // The largest u32 length must not wrap the bounds check.
  bytes.assign({1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 'a'});
  EXPECT_EQ(DecodeArgvManifest(bytes, &decoded).code(), StatusCode::kDataLoss);
}

TEST(ArgvManifestTest, EntryHoldingANulByteIsDataLoss) {
  // No C string holds a NUL, so such an entry could not re-encode to the same bytes.
  std::vector<uint8_t> bytes;
  ByteWriter w(bytes);
  w.PutU32(1);
  w.PutBlob(std::vector<uint8_t>{'a', 0, 'b'});
  std::vector<std::string> decoded;
  EXPECT_EQ(DecodeArgvManifest(bytes, &decoded).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace mercurial
