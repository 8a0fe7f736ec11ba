// Cross-module property tests: invariants that must hold across the whole defect catalog and
// detection stack, swept with parameterized suites.
//
//   P1. Healthy-core transparency: arbitrary op sequences on a defect-free core are
//       bit-identical to golden (differential fuzzing).
//   P2. Every catalog defect class, planted loudly, is caught by a full-coverage stress
//       battery with an f/V/T sweep.
//   P3. Every catalog defect class, planted loudly, produces observable symptoms or wrong
//       outputs under the production corpus.
//   P4. Determinism: a (seed, defect) pair replays the exact same corruption sequence.
//   P5. Mitigation soundness: checked sorting and the e2e store never RETURN wrong data, for
//       any defect class afflicting their units (they may abort, never lie).
//   P6. Fleet-build determinism: Fleet::Build is a pure function of its options across random
//       seeds and product mixes (population, install times, planted defects).
//   P7. Shard-partition soundness: PartitionCores covers every core exactly once, in order,
//       for random fleet sizes and shard counts.
//   P8. Metric-merge associativity: folding shard MetricRegistry deltas in shard order is
//       exactly the serial accumulation of the same events.
//   P9. Conviction cause chains: every convicted core's trace walks the lifecycle in order —
//       suspicion before admission, admission before interrogation, verdict at conviction,
//       repair only after conviction, defect fires never after the defect-driven signals.
//   P10. Quarantine admission books balance: every kQuarantineAdmit is closed by exactly one
//       terminal event (verdict or force-release), except for suspects still pending at study
//       end, which the report counts explicitly.
//   P11. Flight-recorder conservation: under adversarially tiny ring capacities and sampling,
//       events_dropped + events_recorded == events_emitted — loss is loud, never silent.
//   P12. Conviction lifecycle conservation: with quorum + probation + verdict chaos on, every
//       conviction either retires on strong evidence or opens a probation record that is
//       closed by exactly one kProbationEnd (reinstated / escalated / fresh signal) or is
//       still pending at study end.
//   P13. Probation books balance per core: starts minus ends equals the pending count, and no
//       core holds more than one open probation record.
//   P14. Configured-but-disabled invisibility: quorum/probation options that are set but not
//       enabled leave the serialized trace byte-identical to an all-defaults run.
//   P15. Wheel completeness: a sparse (due-wheel) screening orchestrator, driven tick by tick
//       against a dense twin with identical streams, scheduler churn, fleet growth, and
//       guardrail throttles, screens exactly the same cores at exactly the same ticks — same
//       visit order, same outcomes, same deferral counts.
//   P16. Activation-queue exactness: the active-production index admits a core at the first
//       tick >= its earliest defect activation (install + onset) and never later — every core
//       with AnyDefectActive() is in its shard's slice — and retirement removes admitted and
//       pending cores alike, permanently.
//   P17. Crash-recovery conservation: with the write-ahead journal on and the controller
//       killed after every tick, the conviction/probation lifecycle books (P12/P13) still
//       balance exactly — no conviction, probation record, or repair item is lost or applied
//       twice across recoveries. The torn-tail variant loses frames by design, and every loss
//       is accounted: exact + prefix recoveries == crashes, truncated frames and reconcile
//       actions are counted, never silent.
//   P18. Every journal prefix is recoverable: truncating a journal at EVERY byte boundary
//       yields either a clean recovery to some durable tick (state exactly as it was at that
//       tick) or a loud DATA_LOSS refusal — never a crash, never a blend, never garbage.

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>
#include <unordered_set>
#include <utility>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/fleet_study.h"
#include "src/fleet/fleet.h"
#include "src/mitigate/abft.h"
#include "src/telemetry/metrics.h"
#include "src/mitigate/e2e_store.h"
#include "src/sim/core.h"
#include "src/sim/defect_catalog.h"
#include "src/substrate/checksum.h"
#include "src/telemetry/trace.h"
#include "src/workload/stress.h"
#include "src/workload/workload.h"

namespace mercurial {
namespace {

// Loud, always-active version of a catalog class so properties can be verified with bounded
// work.
DefectSpec LoudDefect(DefectClass klass, uint64_t seed) {
  Rng rng(seed);
  CatalogOptions options;
  options.p_latent = 0.0;
  options.p_data_triggered = 0.0;
  options.log10_rate_min = -2.0;
  options.log10_rate_max = -1.5;
  options.max_machine_check_fraction = 0.0;
  return DrawDefect(klass, options, rng);
}

// --- P1: differential fuzzing of healthy cores ------------------------------------------------

TEST(PropertyTest, HealthyCoreDifferentialFuzz) {
  SimCore core(1, Rng(1));
  Rng rng(2);
  for (int round = 0; round < 2000; ++round) {
    const uint64_t a = rng.NextU64();
    const uint64_t b = rng.NextU64();
    switch (rng.UniformInt(0, 5)) {
      case 0: {
        const auto op = static_cast<AluOp>(rng.UniformInt(0, 7));
        const uint64_t got = core.Alu(op, a, b);
        SimCore fresh(2, Rng(3));
        ASSERT_EQ(got, fresh.Alu(op, a, b)) << "op " << static_cast<int>(op);
        break;
      }
      case 1:
        ASSERT_EQ(core.Mul(a, b), a * b);
        break;
      case 2:
        ASSERT_EQ(core.Div(a, b | 1), a / (b | 1));
        break;
      case 3:
        ASSERT_EQ(core.Load(a), a);
        ASSERT_EQ(core.Store(b), b);
        break;
      case 4: {
        uint8_t src[24];
        uint8_t dst[24];
        std::memcpy(src, &a, 8);
        std::memcpy(src + 8, &b, 8);
        std::memcpy(src + 16, &a, 8);
        core.Copy(dst, src, sizeof(src));
        ASSERT_EQ(std::memcmp(src, dst, sizeof(src)), 0);
        break;
      }
      case 5: {
        uint64_t target = a;
        ASSERT_TRUE(core.Cas(target, a, b));
        ASSERT_EQ(target, b);
        break;
      }
    }
  }
  EXPECT_EQ(core.counters().corruptions, 0u);
  EXPECT_EQ(core.counters().machine_checks, 0u);
}

// --- P2/P3 parameterized over the catalog ------------------------------------------------------

class DefectClassProperty : public ::testing::TestWithParam<int> {};

TEST_P(DefectClassProperty, FullBatteryCatchesLoudDefect) {
  const auto klass = static_cast<DefectClass>(GetParam());
  SimCore core(1, Rng(50 + GetParam()));
  core.AddDefect(LoudDefect(klass, 60 + GetParam()));
  Rng rng(70 + GetParam());
  StressOptions options;
  options.iterations_per_unit = 1024;
  options.sweep = StandardScreeningSweep();
  const StressReport report = RunStressBattery(core, rng, options);
  EXPECT_FALSE(report.passed()) << DefectClassName(klass)
                                << " evaded a loud full-coverage battery";
  // The battery must implicate the right unit.
  const auto failed = report.FailedUnits();
  const ExecUnit expected_unit = core.defects()[0].unit();
  EXPECT_TRUE(std::find(failed.begin(), failed.end(), expected_unit) != failed.end())
      << DefectClassName(klass) << ": wrong unit implicated";
}

TEST_P(DefectClassProperty, CorpusSurfacesLoudDefect) {
  const auto klass = static_cast<DefectClass>(GetParam());
  SimCore core(1, Rng(80 + GetParam()));
  core.AddDefect(LoudDefect(klass, 90 + GetParam()));
  WorkloadOptions options;
  options.payload_bytes = 512;
  options.check_probability = 1.0;
  auto corpus = BuildStandardCorpus(options);
  Rng rng(100 + GetParam());
  int troubled = 0;
  for (int round = 0; round < 30; ++round) {
    for (auto& workload : corpus) {
      const WorkloadResult result = workload->Run(core, rng);
      if (result.wrong_output || result.symptom != Symptom::kNone) {
        ++troubled;
      }
    }
  }
  EXPECT_GT(troubled, 0) << DefectClassName(klass)
                         << " produced zero symptoms across the whole corpus";
}

TEST_P(DefectClassProperty, CorruptionSequenceIsSeedDeterministic) {
  const auto klass = static_cast<DefectClass>(GetParam());
  auto run = [&](uint64_t seed) {
    SimCore core(1, Rng(seed));
    core.AddDefect(LoudDefect(klass, 123));
    Rng rng(999);
    std::vector<uint64_t> observations;
    for (int i = 0; i < 200; ++i) {
      observations.push_back(core.Alu(AluOp::kAdd, rng.NextU64(), rng.NextU64()));
      observations.push_back(core.Mul(rng.NextU64(), rng.NextU64()));
      uint64_t target = rng.NextU64();
      core.Cas(target, target, rng.NextU64());
      observations.push_back(target);
    }
    return observations;
  };
  EXPECT_EQ(run(42), run(42)) << "same seed must replay identical corruption";
}

INSTANTIATE_TEST_SUITE_P(AllClasses, DefectClassProperty,
                         ::testing::Range(0, kDefectClassCount));

// --- P5: mitigation soundness across the catalog -----------------------------------------------

class MitigationSoundness : public ::testing::TestWithParam<int> {};

TEST_P(MitigationSoundness, CheckedSortNeverLies) {
  const auto klass = static_cast<DefectClass>(GetParam());
  SimCore bad(1, Rng(200 + GetParam()));
  bad.AddDefect(LoudDefect(klass, 210 + GetParam()));
  SimCore good(2, Rng(220));
  std::vector<SimCore*> pool{&bad, &good};
  Rng rng(230 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<uint64_t> keys(128);
    for (auto& k : keys) {
      k = rng.NextU64();
    }
    std::vector<uint64_t> golden = keys;
    std::sort(golden.begin(), golden.end());
    const auto result = CheckedSort(keys, pool, 4, nullptr);
    if (result.ok()) {
      EXPECT_EQ(*result, golden) << DefectClassName(klass)
                                 << ": checked sort returned wrong data";
    }
    // Aborting is acceptable; lying is not.
  }
}

TEST_P(MitigationSoundness, E2eStoreNeverReturnsWrongBytes) {
  const auto klass = static_cast<DefectClass>(GetParam());
  SimCore server(1, Rng(300 + GetParam()));
  server.AddDefect(LoudDefect(klass, 310 + GetParam()));
  ChecksummedStore store(&server, /*verify_on_write=*/true);
  Rng rng(320 + GetParam());
  for (uint64_t key = 0; key < 20; ++key) {
    std::vector<uint8_t> data(128);
    rng.FillBytes(data.data(), data.size());
    if (!store.Write(key, data).ok()) {
      continue;  // fail-closed is fine
    }
    const auto read = store.Read(key);
    if (read.ok()) {
      EXPECT_EQ(*read, data) << DefectClassName(klass) << ": store returned corrupt bytes";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, MitigationSoundness,
                         ::testing::Range(0, kDefectClassCount));

// --- Substrate round-trip properties under random sizes ----------------------------------------

TEST(PropertyTest, MultisetDigestDetectsAnySingleSubstitution) {
  Rng rng(400);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.UniformInt(0, 63);
    std::vector<uint64_t> items(n);
    for (auto& item : items) {
      item = rng.NextU64();
    }
    const uint64_t digest = MultisetDigest(items.data(), n);
    std::vector<uint64_t> mutated = items;
    const size_t index = rng.UniformInt(0, n - 1);
    mutated[index] ^= 1ull << rng.UniformInt(0, 63);
    EXPECT_NE(MultisetDigest(mutated.data(), n), digest);
  }
}

// --- P6: fleet-build determinism across seeds and product mixes --------------------------------

TEST(PropertyTest, FleetBuildIsPureFunctionOfOptions) {
  Rng meta_rng(600);
  for (int trial = 0; trial < 12; ++trial) {
    FleetOptions options;
    options.machine_count = 20 + meta_rng.UniformInt(0, 80);
    options.seed = meta_rng.NextU64();
    options.product_mix = {meta_rng.NextDouble() + 0.01, meta_rng.NextDouble() + 0.01,
                           meta_rng.NextDouble() + 0.01};
    options.mercurial_rate_multiplier = 50.0 + meta_rng.NextDouble() * 200.0;
    options.future_install_spread = SimTime::Days(meta_rng.UniformInt(0, 200));

    Fleet first = Fleet::Build(options);
    Fleet second = Fleet::Build(options);

    ASSERT_EQ(first.machine_count(), second.machine_count());
    ASSERT_EQ(first.core_count(), second.core_count());
    ASSERT_EQ(first.mercurial_cores(), second.mercurial_cores()) << "trial " << trial;
    for (size_t m = 0; m < first.machine_count(); ++m) {
      ASSERT_EQ(first.machine(m).install_time(), second.machine(m).install_time());
      ASSERT_EQ(first.machine(m).product().name, second.machine(m).product().name);
    }
    // The planted defect populations must match core-for-core, spec-for-spec.
    for (uint64_t core_index : first.mercurial_cores()) {
      const auto& a = first.core(core_index).defects();
      const auto& b = second.core(core_index).defects();
      ASSERT_EQ(a.size(), b.size());
      for (size_t d = 0; d < a.size(); ++d) {
        EXPECT_EQ(a[d].spec().label, b[d].spec().label);
        EXPECT_EQ(a[d].unit(), b[d].unit());
      }
    }
  }
}

// --- P7: shard partition covers every core exactly once ----------------------------------------

TEST(PropertyTest, PartitionCoresIsExactOrderedCover) {
  Rng rng(700);
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t core_count = rng.UniformInt(0, 5000);
    const int shards = static_cast<int>(rng.UniformInt(1, 64));
    const auto ranges = PartitionCores(core_count, shards);
    ASSERT_EQ(ranges.size(), static_cast<size_t>(shards));
    uint64_t expected_begin = 0;
    for (const ShardRange& range : ranges) {
      ASSERT_EQ(range.begin, expected_begin) << "gap or overlap at shard boundary";
      ASSERT_LE(range.begin, range.end);
      expected_begin = range.end;
    }
    ASSERT_EQ(expected_begin, core_count) << "partition must cover all cores";
  }
}

// --- P8: metric-registry merge associativity ---------------------------------------------------

namespace {

// One random metric event applied identically to a shard delta and the serial reference.
void EmitRandomMetricEvent(Rng& rng, MetricRegistry& target, MetricRegistry& reference) {
  static const char* kCounters[] = {"signals.crash", "signals.app_report", "corruption.silent"};
  static const char* kSeries[] = {"incidents.user_reported", "incidents.auto_reported"};
  switch (rng.UniformInt(0, 2)) {
    case 0: {
      const char* name = kCounters[rng.UniformInt(0, 2)];
      const uint64_t delta = 1 + rng.UniformInt(0, 4);
      target.Increment(name, delta);
      reference.Increment(name, delta);
      break;
    }
    case 1: {
      const char* name = kSeries[rng.UniformInt(0, 1)];
      const SimTime when = SimTime::Days(static_cast<int64_t>(rng.UniformInt(0, 400)));
      target.Series(name).Add(when, 1.0);
      reference.Series(name).Add(when, 1.0);
      break;
    }
    case 2: {
      // Integer-valued samples keep sum/sum_squares exact under any grouping, so the exact
      // equality below tests merge logic, not floating-point reassociation.
      const double value = static_cast<double>(rng.UniformInt(0, 99));
      target.Histo("latency", 0.0, 100.0, 20).Add(value);
      reference.Histo("latency", 0.0, 100.0, 20).Add(value);
      break;
    }
  }
}

void ExpectRegistriesEqual(const MetricRegistry& a, const MetricRegistry& b) {
  ASSERT_EQ(a.counters(), b.counters());
  for (const char* name : {"incidents.user_reported", "incidents.auto_reported"}) {
    const TimeSeries* sa = a.FindSeries(name);
    const TimeSeries* sb = b.FindSeries(name);
    ASSERT_EQ(sa == nullptr, sb == nullptr) << name;
    if (sa == nullptr) {
      continue;
    }
    ASSERT_EQ(sa->bucket_count(), sb->bucket_count()) << name;
    for (size_t i = 0; i < sa->bucket_count(); ++i) {
      ASSERT_EQ(sa->bucket_sum(i), sb->bucket_sum(i)) << name << " bucket " << i;
      ASSERT_EQ(sa->bucket_samples(i), sb->bucket_samples(i)) << name << " bucket " << i;
    }
  }
  const Histogram* ha = a.FindHisto("latency");
  const Histogram* hb = b.FindHisto("latency");
  ASSERT_EQ(ha == nullptr, hb == nullptr);
  if (ha != nullptr) {
    ASSERT_EQ(ha->buckets(), hb->buckets());
    ASSERT_EQ(ha->count(), hb->count());
    ASSERT_EQ(ha->sum(), hb->sum());
  }
}

}  // namespace

TEST(PropertyTest, MetricRegistryMergeInShardOrderEqualsSerialAccumulation) {
  Rng rng(800);
  for (int trial = 0; trial < 20; ++trial) {
    const int shards = 1 + static_cast<int>(rng.UniformInt(0, 7));
    // The serial reference sees every event in shard order; each shard delta sees only its
    // own slice. Folding deltas in shard order must reproduce the reference exactly.
    MetricRegistry reference;
    std::vector<MetricRegistry> deltas(static_cast<size_t>(shards));
    for (MetricRegistry& delta : deltas) {
      const uint64_t events = rng.UniformInt(0, 50);
      for (uint64_t e = 0; e < events; ++e) {
        EmitRandomMetricEvent(rng, delta, reference);
      }
    }
    MetricRegistry merged;
    for (const MetricRegistry& delta : deltas) {
      merged.Merge(delta);
    }
    ExpectRegistriesEqual(merged, reference);

    // Associativity: pre-merging a prefix then merging the rest gives the same result.
    MetricRegistry left_fold;
    MetricRegistry prefix;
    for (int k = 0; k < shards; ++k) {
      (k < shards / 2 ? prefix : left_fold).Merge(deltas[static_cast<size_t>(k)]);
    }
    MetricRegistry regrouped;
    regrouped.Merge(prefix);
    regrouped.Merge(left_fold);
    ExpectRegistriesEqual(regrouped, reference);
  }
}

// --- P9/P10/P11: incident flight-recorder lifecycle properties ---------------------------------

namespace {

// A traced study exercising the full lifecycle: chaos keeps the control plane retrying and
// force-releasing, auditing makes convictions spawn repair events, and the fleet is mercurial
// enough that convictions actually happen.
StudyOptions TracedLifecycleOptions() {
  StudyOptions options;
  options.seed = 20210531;
  options.fleet.machine_count = 80;
  options.fleet.mercurial_rate_multiplier = 150.0;
  options.workload.payload_bytes = 256;
  options.work_units_per_core_day = 20;
  options.duration = SimTime::Days(100);
  options.screening.offline_period = SimTime::Days(25);
  options.shards = 8;
  options.threads = 2;
  options.control_plane.max_pending = 64;
  options.control_plane.max_retries = 3;
  options.control_plane.retry_backoff = SimTime::Days(1);
  options.control_plane.drain_latency = SimTime::Hours(12);
  options.control_plane.drain_timeout = SimTime::Days(4);
  options.control_plane.chaos.abort_interrogation = 0.30;
  options.control_plane.chaos.machine_restart_per_day = 0.20;
  options.audit.enabled = true;
  options.audit.repair_budget_per_tick = 256;
  options.trace.enabled = true;
  return options;
}

// First-occurrence time of `kind` in `events`, or nullopt-like (-1, false).
bool FirstTime(const std::vector<TraceEvent>& events, TraceEventKind kind, int64_t* out) {
  for (const TraceEvent& event : events) {
    if (event.kind == kind) {
      *out = event.time_seconds;
      return true;
    }
  }
  return false;
}

bool IsRepairKind(TraceEventKind kind) {
  return kind == TraceEventKind::kRepairPass || kind == TraceEventKind::kRepairRetry ||
         kind == TraceEventKind::kRepairShed;
}

}  // namespace

// P9: every convicted core's cause chain is complete (suspicion -> admission ->
// interrogation -> verdict -> conviction, all present) and monotone in time, repair events
// never precede the conviction, and the first defect fire never postdates the first
// defect-driven signal.
TEST(PropertyTest, ConvictedCoreCauseChainIsCompleteAndMonotone) {
  FleetStudy study(TracedLifecycleOptions());
  const StudyReport report = study.Run();
  const TraceQuery query(report.trace);
  const std::vector<uint64_t> convicted = query.ConvictedCores();
  ASSERT_GT(convicted.size(), 0u) << "harness produced no convictions; properties are vacuous";

  for (const uint64_t core : convicted) {
    SCOPED_TRACE("core " + std::to_string(core));
    const std::vector<TraceEvent> chain = query.CauseChain(core);
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.back().kind, TraceEventKind::kConviction);

    // Monotone timestamps along the chain (the assembled trace is time-ordered).
    for (size_t i = 1; i < chain.size(); ++i) {
      ASSERT_LE(chain[i - 1].time_seconds, chain[i].time_seconds) << "event " << i;
    }

    // Completeness: the pipeline stages all appear, in first-occurrence order.
    const TraceEventKind stages[] = {
        TraceEventKind::kSuspicionRaised, TraceEventKind::kQuarantineAdmit,
        TraceEventKind::kInterrogationStart, TraceEventKind::kInterrogationVerdict,
        TraceEventKind::kConviction};
    int64_t previous = 0;
    bool have_previous = false;
    for (const TraceEventKind stage : stages) {
      int64_t first = 0;
      ASSERT_TRUE(FirstTime(chain, stage, &first))
          << "missing stage " << TraceEventKindName(stage);
      if (have_previous) {
        EXPECT_LE(previous, first) << "stage " << TraceEventKindName(stage)
                                   << " precedes its predecessor";
      }
      previous = first;
      have_previous = true;
    }

    // Defect fires (when recorded — a false-positive conviction has none) precede the first
    // defect-driven signal. Background noise is excluded: it is software, not the defect.
    int64_t first_fire = 0;
    if (FirstTime(chain, TraceEventKind::kDefectFired, &first_fire)) {
      for (const TraceEvent& event : chain) {
        if (event.kind == TraceEventKind::kSignalEmitted &&
            event.cause != TraceCause::kBackgroundNoise) {
          EXPECT_LE(first_fire, event.time_seconds) << "signal before any defect fire";
          break;
        }
      }
    }

    // Repair strictly follows conviction (tasks exist only post-conviction).
    const int64_t conviction_time = chain.back().time_seconds;
    for (const TraceEvent& event : query.CoreTimeline(core)) {
      if (IsRepairKind(event.kind)) {
        EXPECT_GE(event.time_seconds, conviction_time)
            << TraceEventKindName(event.kind) << " before conviction";
      }
    }
  }
}

// P10: quarantine admission books balance. Per core, admissions exceed terminal events
// (verdict or force-release) by at most one — the admission still pending at study end — and
// the fleet-wide deficit is exactly the control plane's pending_at_end count.
TEST(PropertyTest, EveryQuarantineAdmissionHasExactlyOneTerminalEvent) {
  FleetStudy study(TracedLifecycleOptions());
  const StudyReport report = study.Run();
  ASSERT_GT(report.trace.events.size(), 0u);

  std::map<uint64_t, int64_t> admits;
  std::map<uint64_t, int64_t> terminals;
  for (const TraceEvent& event : report.trace.events) {
    if (event.kind == TraceEventKind::kQuarantineAdmit) {
      ++admits[event.core];
    } else if (event.kind == TraceEventKind::kInterrogationVerdict ||
               event.kind == TraceEventKind::kQuarantineForceRelease) {
      ++terminals[event.core];
    }
  }
  ASSERT_FALSE(admits.empty()) << "harness admitted nothing; property is vacuous";

  uint64_t deficit_total = 0;
  for (const auto& [core, admitted] : admits) {
    const int64_t closed = terminals.count(core) ? terminals.at(core) : 0;
    const int64_t deficit = admitted - closed;
    EXPECT_GE(deficit, 0) << "core " << core << " closed more admissions than it had";
    EXPECT_LE(deficit, 1) << "core " << core << " has multiple unterminated admissions";
    deficit_total += static_cast<uint64_t>(deficit);
  }
  for (const auto& [core, closed] : terminals) {
    EXPECT_TRUE(admits.count(core)) << "core " << core << " terminated without admission";
  }
  EXPECT_EQ(deficit_total, report.control_plane.pending_at_end);
}

// P11: conservation under adversarially tiny ring capacities and aggressive sampling. Drops
// and sampling must both actually occur (otherwise the accounting is untested), and
// dropped + recorded == emitted must hold exactly.
TEST(PropertyTest, TraceAccountingConservesEventsUnderTinyCapacities) {
  for (const size_t capacity : {size_t{4}, size_t{64}}) {
    StudyOptions options = TracedLifecycleOptions();
    options.trace.ring_capacity = capacity;
    options.trace.sample_every[static_cast<size_t>(TraceEventKind::kDefectFired)] = 7;
    options.trace.sample_every[static_cast<size_t>(TraceEventKind::kSignalEmitted)] = 3;
    SCOPED_TRACE("ring_capacity=" + std::to_string(capacity));
    FleetStudy study(options);
    const StudyReport report = study.Run();
    const TraceCounters& counters = report.trace.counters;
    EXPECT_EQ(counters.events_recorded + counters.events_dropped, counters.events_emitted);
    if (capacity == 4) {
      // Only the smallest rings are guaranteed to wrap; the larger capacity exists to show
      // conservation holds whether or not the overwrite path fires.
      EXPECT_GT(counters.events_dropped, 0u) << "rings never wrapped; drop path untested";
    }
    EXPECT_GT(counters.events_sampled_out, 0u) << "sampling never engaged";
    EXPECT_EQ(report.trace.events.size(), counters.events_recorded);
    EXPECT_LE(report.trace.events.size(),
              capacity * static_cast<size_t>(report.trace.shards));
  }
}

// --- P12/P13/P14: quorum + probation lifecycle properties --------------------------------------

namespace {

// The traced lifecycle harness with the full verdict stack on: quorum interrogation, probation
// with reinstatement, and testimony chaos (lying witnesses, witness crashes, suppressed
// probation signals) so every lifecycle edge actually fires.
StudyOptions QuorumProbationLifecycleOptions() {
  StudyOptions options = TracedLifecycleOptions();
  options.fleet.mercurial_rate_multiplier = 400.0;  // more convictions => richer lifecycle
  options.control_plane.quorum.enabled = true;
  options.control_plane.quorum.witnesses = 3;
  options.control_plane.probation.enabled = true;
  options.control_plane.probation.window = SimTime::Days(2);
  options.control_plane.probation.clean_windows_to_reinstate = 2;
  // Convictions that needed a retry count as weak evidence — with 30% interrogation aborts
  // this keeps the probation path busy.
  options.control_plane.probation.weak_after_attempts = 1;
  options.control_plane.chaos.lying_witness = 0.20;
  options.control_plane.chaos.witness_crash = 0.15;
  options.control_plane.chaos.probation_suppress = 0.25;
  return options;
}

}  // namespace

// P12: every conviction is accounted for. Strong convictions retire immediately; weak ones
// open a probation record, and each record is closed by exactly one kProbationEnd or is still
// pending when the study ends.
TEST(PropertyTest, ConvictionLifecycleConservesProbationRecords) {
  FleetStudy study(QuorumProbationLifecycleOptions());
  const StudyReport report = study.Run();

  uint64_t convictions = 0;
  uint64_t strong_convictions = 0;
  uint64_t probation_starts = 0;
  uint64_t probation_ends = 0;
  uint64_t quorum_verdicts = 0;
  for (const TraceEvent& event : report.trace.events) {
    switch (event.kind) {
      case TraceEventKind::kConviction:
        ++convictions;
        if (event.cause != TraceCause::kWeakEvidence) {
          ++strong_convictions;
        }
        break;
      case TraceEventKind::kProbationStart:
        ++probation_starts;
        EXPECT_EQ(event.cause, TraceCause::kWeakEvidence);
        break;
      case TraceEventKind::kProbationEnd:
        ++probation_ends;
        EXPECT_TRUE(event.cause == TraceCause::kReinstated ||
                    event.cause == TraceCause::kProbationEscalated ||
                    event.cause == TraceCause::kProbationSignal)
            << "unexpected probation-end cause " << static_cast<int>(event.cause);
        break;
      case TraceEventKind::kQuorumVerdict:
        ++quorum_verdicts;
        break;
      default:
        break;
    }
  }
  ASSERT_GT(convictions, 0u) << "no convictions; conservation is vacuous";
  ASSERT_GT(probation_starts, 0u) << "no weak convictions; probation path untested";
  EXPECT_EQ(convictions,
            strong_convictions + probation_ends + report.control_plane.probation_pending_at_end);
  EXPECT_EQ(convictions - strong_convictions, probation_starts)
      << "every weak conviction opens exactly one probation record";
  EXPECT_EQ(quorum_verdicts, report.control_plane.quorum.judgments)
      << "every quorum judgment must be traced";
  EXPECT_GT(report.control_plane.quorum.judgments, 0u);
}

// P13: per-core probation books. A core can hold at most one open probation record, so starts
// minus ends is 0 or 1 per core, and the fleet-wide deficit is the control plane's pending
// count.
TEST(PropertyTest, ProbationBooksBalancePerCore) {
  FleetStudy study(QuorumProbationLifecycleOptions());
  const StudyReport report = study.Run();

  std::map<uint64_t, int64_t> starts;
  std::map<uint64_t, int64_t> ends;
  for (const TraceEvent& event : report.trace.events) {
    if (event.kind == TraceEventKind::kProbationStart) {
      ++starts[event.core];
    } else if (event.kind == TraceEventKind::kProbationEnd) {
      ++ends[event.core];
    }
  }
  ASSERT_FALSE(starts.empty()) << "no probation starts; books are vacuous";

  uint64_t deficit_total = 0;
  for (const auto& [core, started] : starts) {
    const int64_t closed = ends.count(core) ? ends.at(core) : 0;
    const int64_t deficit = started - closed;
    EXPECT_GE(deficit, 0) << "core " << core << " ended probation it never started";
    EXPECT_LE(deficit, 1) << "core " << core << " holds multiple open probation records";
    deficit_total += static_cast<uint64_t>(deficit);
  }
  for (const auto& [core, closed] : ends) {
    EXPECT_TRUE(starts.count(core)) << "core " << core << " ended probation without starting";
  }
  EXPECT_EQ(deficit_total, report.control_plane.probation_pending_at_end);
}

// P14: configuring quorum and probation without enabling them must be bit-invisible — the
// serialized trace and the headline counters are identical to an all-defaults run.
TEST(PropertyTest, DisabledQuorumAndProbationAreBitInvisible) {
  StudyOptions baseline = TracedLifecycleOptions();

  StudyOptions configured = TracedLifecycleOptions();
  configured.control_plane.quorum.witnesses = 9;
  configured.control_plane.quorum.witness_error_rate = 0.9;
  configured.control_plane.quorum.strong_agreement = 0.6;
  configured.control_plane.quorum.max_escalations = 4;
  configured.control_plane.probation.window = SimTime::Days(2);
  configured.control_plane.probation.clean_windows_to_reinstate = 7;
  configured.control_plane.probation.weak_after_attempts = 1;
  ASSERT_FALSE(configured.control_plane.quorum.enabled);
  ASSERT_FALSE(configured.control_plane.probation.enabled);

  FleetStudy study_a(baseline);
  const StudyReport report_a = study_a.Run();
  FleetStudy study_b(configured);
  const StudyReport report_b = study_b.Run();

  EXPECT_EQ(SerializeTrace(report_a.trace), SerializeTrace(report_b.trace))
      << "disabled quorum/probation options leaked into the trace";
  EXPECT_EQ(report_a.quarantine.retirements, report_b.quarantine.retirements);
  EXPECT_EQ(report_a.quarantine.confessions, report_b.quarantine.confessions);
  EXPECT_EQ(report_a.quarantine.probation_entries, 0u);
  EXPECT_EQ(report_b.quarantine.probation_entries, 0u);
  EXPECT_EQ(report_a.control_plane.quorum.judgments, 0u);
  EXPECT_EQ(report_b.control_plane.quorum.judgments, 0u);
  EXPECT_EQ(report_a.silent_corruptions, report_b.silent_corruptions);
  EXPECT_EQ(report_a.work_units_executed, report_b.work_units_executed);
}

TEST(PropertyTest, AbftCorrectionNeverWorsensHealthyResult) {
  SimCore core(1, Rng(500));
  Rng rng(501);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.UniformInt(0, 8);
    Matrix a(n, n);
    Matrix b(n, n);
    for (auto& v : a.data()) {
      v = rng.NextDouble() * 2 - 1;
    }
    for (auto& v : b.data()) {
      v = rng.NextDouble() * 2 - 1;
    }
    const AbftMatmulResult result = AbftMatmul(core, a, b);
    EXPECT_FALSE(result.corruption_detected);
    EXPECT_LT(result.product.MaxAbsDiff(Multiply(a, b)), 1e-9);
  }
}

// P15: wheel completeness. A sparse orchestrator and a dense twin — identical construction
// stream (same due stagger), identical per-(shard, tick) draw streams, twin fleets from the
// same options, and identical scheduler churn — must screen exactly the same cores at exactly
// the same ticks, in the same order, with the same outcomes. The drive interleaves the three
// reschedule sources the wheel must honor: the post-screen cadence, install-time parking
// (future installs), and guardrail ThrottleOffline deferrals.
TEST(PropertyTest, SparseWheelScreensExactlyTheDenseTicks) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 12;
  fleet_options.seed = 4242;
  fleet_options.mercurial_rate_multiplier = 300.0;
  fleet_options.install_spread = SimTime::Days(30);
  fleet_options.future_install_spread = SimTime::Days(45);  // install-tick parking exercised
  Fleet fleet_dense = Fleet::Build(fleet_options);
  Fleet fleet_sparse = Fleet::Build(fleet_options);
  const size_t cores = fleet_dense.core_count();

  ScreeningOptions screen_options;
  screen_options.offline_period = SimTime::Days(9);
  screen_options.offline_iterations = 64;  // keep the 120-tick drive cheap
  screen_options.online_enabled = false;   // the wheel indexes only the offline cadence

  CoreScheduler sched_dense(cores, SchedulerCosts{});
  CoreScheduler sched_sparse(cores, SchedulerCosts{});
  ScreeningOrchestrator dense(screen_options, cores, Rng(77));
  ScreeningOrchestrator sparse(screen_options, cores, Rng(77));

  const SimTime dt = SimTime::Days(1);
  const std::vector<ShardRange> ranges = PartitionCores(cores, 3);
  std::vector<std::pair<uint64_t, uint64_t>> spans;
  for (const ShardRange& range : ranges) {
    spans.emplace_back(range.begin, range.end);
  }
  sparse.EnableSparse(dt, spans);

  Rng churn(999);
  uint64_t total_screens = 0;
  uint64_t total_deferred = 0;
  for (int64_t t = 1; t <= 120; ++t) {
    const SimTime now = SimTime::Seconds(t * dt.seconds());
    fleet_dense.SetAges(now);
    fleet_sparse.SetAges(now);

    // Identical scheduler churn on both twins: the wheel must keep visiting unschedulable
    // cores (their cadence advances; the confession path owns them) and must tolerate
    // retirement (the core stays parked in the wheel, skipped forever).
    for (int j = 0; j < 3; ++j) {
      const uint64_t core = churn.UniformInt(0, cores - 1);
      switch (churn.UniformInt(0, 3)) {
        case 0:
          if (sched_dense.Schedulable(core)) {
            sched_dense.Drain(core);
            sched_dense.Quarantine(core);
            sched_sparse.Drain(core);
            sched_sparse.Quarantine(core);
          }
          break;
        case 1:
          if (sched_dense.state(core) == CoreState::kQuarantined) {
            sched_dense.Release(core);
            sched_sparse.Release(core);
          }
          break;
        case 2:
          if (sched_dense.state(core) == CoreState::kQuarantined) {
            sched_dense.Retire(core);
            sched_sparse.Retire(core);
          }
          break;
        default:
          break;
      }
    }

    for (size_t k = 0; k < ranges.size(); ++k) {
      Rng rng_dense(DeriveStreamSeed(123, k, static_cast<uint64_t>(t)));
      Rng rng_sparse(DeriveStreamSeed(123, k, static_cast<uint64_t>(t)));
      const ShardScreenOutcome out_dense = dense.TickShard(
          now, dt, ranges[k].begin, ranges[k].end, fleet_dense, sched_dense, rng_dense);
      const ShardScreenOutcome out_sparse = sparse.TickShard(
          now, dt, ranges[k].begin, ranges[k].end, fleet_sparse, sched_sparse, rng_sparse);
      ASSERT_EQ(out_dense.offline_drained, out_sparse.offline_drained)
          << "tick " << t << " shard " << k;
      ASSERT_EQ(out_dense.stats.offline_screens, out_sparse.stats.offline_screens);
      ASSERT_EQ(out_dense.stats.screen_failures, out_sparse.stats.screen_failures);
      ASSERT_EQ(out_dense.stats.ops_spent, out_sparse.stats.ops_spent);
      ASSERT_EQ(out_dense.failures.size(), out_sparse.failures.size());
      for (size_t i = 0; i < out_dense.failures.size(); ++i) {
        EXPECT_EQ(out_dense.failures[i].core_global, out_sparse.failures[i].core_global);
        EXPECT_EQ(out_dense.failures[i].type, out_sparse.failures[i].type);
      }
      total_screens += out_dense.stats.offline_screens;
      for (const uint64_t core : out_dense.offline_drained) {
        sched_dense.Drain(core);
        sched_dense.Release(core);
        sched_sparse.Drain(core);
        sched_sparse.Release(core);
      }
    }

    if (t % 10 == 0) {
      // Guardrail throttle: both twins must defer exactly the same screens (the sparse path
      // extracts the wheel window and re-checks the exact due times).
      const uint64_t deferred_dense = dense.ThrottleOffline(now, SimTime::Days(5));
      const uint64_t deferred_sparse = sparse.ThrottleOffline(now, SimTime::Days(5));
      ASSERT_EQ(deferred_dense, deferred_sparse) << "tick " << t;
      total_deferred += deferred_dense;
    }
  }
  EXPECT_GT(total_screens, 0u) << "drive never screened; the property is vacuous";
  EXPECT_GT(total_deferred, 0u) << "drive never deferred; throttle reschedules untested";
  const DueWheelStats wheel = sparse.wheel_stats();
  EXPECT_GE(wheel.scheduled, wheel.drained);
  EXPECT_GT(wheel.drained, 0u);
}

// P16: activation-queue exactness. Brute-force oracle per (tick, core): a mercurial core
// belongs to its shard's active slice iff now >= its activation (install + earliest onset,
// clamped to 0 for born-active defects) and it has not been retired. In particular no core
// with AnyDefectActive() may ever be missing — the index may only be early (one tick, on
// float round-trip), never late.
TEST(PropertyTest, ActiveIndexAdmitsExactlyTheOnsetWindow) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 30;
  fleet_options.seed = 7331;
  fleet_options.mercurial_rate_multiplier = 400.0;
  fleet_options.install_spread = SimTime::Days(60);
  fleet_options.future_install_spread = SimTime::Days(60);
  // Mostly-latent defects with onsets short enough to activate DURING the 150-tick drive
  // (the stock catalog spreads onsets over 3 years, which would leave admissions untested).
  CatalogOptions catalog;
  catalog.p_latent = 0.9;
  catalog.max_onset = SimTime::Days(100);
  fleet_options.catalog_override = catalog;
  Fleet fleet = Fleet::Build(fleet_options);
  ASSERT_GT(fleet.mercurial_cores().size(), 10u);

  const std::vector<ShardRange> ranges = PartitionCores(fleet.core_count(), 4);
  ActiveProductionIndex index;
  index.Build(fleet, ranges);

  const auto activation_of = [&fleet](uint64_t core) {
    const SimTime onset = fleet.core(core).EarliestDefectOnset();
    if (onset.seconds() <= 0) {
      return SimTime::Seconds(0);
    }
    return fleet.machine(fleet.core_id(core).machine).install_time() + onset;
  };

  Rng churn(55);
  std::unordered_set<uint64_t> retired;
  bool retired_while_pending = false;
  bool retired_while_admitted = false;
  uint64_t late_admissions = 0;
  const SimTime dt = SimTime::Days(1);
  for (int64_t t = 1; t <= 150; ++t) {
    const SimTime now = SimTime::Seconds(t * dt.seconds());
    fleet.SetAges(now);
    const uint64_t admitted_before = index.admitted_count();
    index.Advance(now);
    if (t > 1) {
      late_admissions += index.admitted_count() - admitted_before;
    }

    for (size_t k = 0; k < ranges.size(); ++k) {
      const std::vector<uint64_t>& slice = index.ActiveInShard(k);
      ASSERT_TRUE(std::is_sorted(slice.begin(), slice.end()));
      for (uint64_t core = ranges[k].begin; core < ranges[k].end; ++core) {
        const bool in_slice = std::binary_search(slice.begin(), slice.end(), core);
        if (!fleet.IsMercurial(core)) {
          ASSERT_FALSE(in_slice) << "healthy core " << core << " admitted";
          continue;
        }
        const bool expected =
            retired.count(core) == 0 && activation_of(core) <= now;
        ASSERT_EQ(in_slice, expected) << "tick " << t << " core " << core;
        if (retired.count(core) == 0 && fleet.core(core).AnyDefectActive()) {
          ASSERT_TRUE(in_slice) << "active defect missed at tick " << t << " core " << core;
        }
      }
    }

    // Retire a random not-yet-retired mercurial core every few ticks: sometimes already
    // admitted (slice removal), sometimes still latent (pending-side removal).
    if (t % 5 == 0) {
      const std::vector<uint64_t>& mercurial = fleet.mercurial_cores();
      const uint64_t pick =
          mercurial[churn.UniformInt(0, mercurial.size() - 1)];
      if (retired.insert(pick).second) {
        if (activation_of(pick) <= now) {
          retired_while_admitted = true;
        } else {
          retired_while_pending = true;
        }
        index.Retire(pick);
      }
    }
  }
  EXPECT_GT(late_admissions, 0u) << "every activation fired at t=1; onsets untested";
  EXPECT_TRUE(retired_while_admitted) << "no slice-side retirement exercised";
  EXPECT_TRUE(retired_while_pending) << "no pending-side retirement exercised";
  // Books: slice-side removals are counted; pending-side ones are suppressed at admission,
  // so the removal counter never exceeds the retirements actually issued.
  EXPECT_GT(index.retired_count(), 0u);
  EXPECT_LE(index.retired_count(), retired.size());
}

// --- P17/P18: crash-recovery conservation ------------------------------------------------------

namespace {

// The quorum + probation lifecycle harness with the write-ahead journal armed and the
// controller dying after every tick. Clean crashes: the journal survives intact.
StudyOptions CrashEveryTickLifecycleOptions() {
  StudyOptions options = QuorumProbationLifecycleOptions();
  options.durability.enabled = true;
  options.control_plane.chaos.controller_crash_every_ticks = 1;
  return options;
}

}  // namespace

// P17 (clean crashes): the lifecycle conservation of P12 and P13 holds verbatim through a
// controller that is killed and recovered from the journal after EVERY tick — the books are
// reconstructed exactly, so nothing is lost and nothing double-applied, including the repair
// pipeline riding on those verdicts.
TEST(PropertyTest, LifecycleBooksBalanceThroughCrashRecoveryEveryTick) {
  FleetStudy study(CrashEveryTickLifecycleOptions());
  const StudyReport report = study.Run();

  ASSERT_GT(report.durability.controller_crashes, 0u);
  ASSERT_EQ(report.durability.recoveries, report.durability.exact_recoveries)
      << "clean crashes must all recover exactly";

  // P12's fleet-wide conservation, re-run on the crashed-and-recovered trace.
  uint64_t convictions = 0;
  uint64_t strong_convictions = 0;
  uint64_t probation_starts = 0;
  uint64_t probation_ends = 0;
  for (const TraceEvent& event : report.trace.events) {
    switch (event.kind) {
      case TraceEventKind::kConviction:
        ++convictions;
        if (event.cause != TraceCause::kWeakEvidence) {
          ++strong_convictions;
        }
        break;
      case TraceEventKind::kProbationStart:
        ++probation_starts;
        break;
      case TraceEventKind::kProbationEnd:
        ++probation_ends;
        break;
      default:
        break;
    }
  }
  ASSERT_GT(convictions, 0u) << "no convictions; conservation is vacuous";
  ASSERT_GT(probation_starts, 0u) << "no weak convictions; probation path untested";
  EXPECT_EQ(convictions,
            strong_convictions + probation_ends + report.control_plane.probation_pending_at_end);
  EXPECT_EQ(convictions - strong_convictions, probation_starts);

  // P13's per-core probation books, same trace.
  std::map<uint64_t, int64_t> starts;
  std::map<uint64_t, int64_t> ends;
  for (const TraceEvent& event : report.trace.events) {
    if (event.kind == TraceEventKind::kProbationStart) {
      ++starts[event.core];
    } else if (event.kind == TraceEventKind::kProbationEnd) {
      ++ends[event.core];
    }
  }
  uint64_t deficit_total = 0;
  for (const auto& [core, started] : starts) {
    const int64_t closed = ends.count(core) ? ends.at(core) : 0;
    const int64_t deficit = started - closed;
    EXPECT_GE(deficit, 0) << "core " << core << " ended probation it never started";
    EXPECT_LE(deficit, 1) << "core " << core << " holds multiple open probation records";
    deficit_total += static_cast<uint64_t>(deficit);
  }
  EXPECT_EQ(deficit_total, report.control_plane.probation_pending_at_end);
}

// P17 (torn tails): crashes that also damage the journal roll the books back by design. The
// property is loud accounting, not losslessness: every crash recovers (exactly or to a
// prefix), every truncated frame is counted, and the study's conservation CHECK
// (frames_replayed + frames_truncated == frames at risk) passes at finalization — reaching
// the assertions below at all proves it.
TEST(PropertyTest, TornTailCrashesAccountEveryLostFrame) {
  StudyOptions options = CrashEveryTickLifecycleOptions();
  options.durability.snapshot_every = 8;
  options.control_plane.chaos.controller_crash_every_ticks = 2;
  options.control_plane.chaos.journal_torn_tail = 0.5;
  options.control_plane.chaos.journal_bit_flip = 0.25;
  FleetStudy study(options);
  const StudyReport report = study.Run();

  ASSERT_GT(report.durability.controller_crashes, 0u);
  EXPECT_EQ(report.durability.recoveries, report.durability.controller_crashes);
  EXPECT_EQ(report.durability.exact_recoveries + report.durability.prefix_recoveries,
            report.durability.recoveries);
  EXPECT_GT(report.durability.prefix_recoveries, 0u) << "no journal damage landed; vacuous";
  EXPECT_GT(report.durability.frames_truncated, 0u);
  EXPECT_GT(report.durability.torn_tail_truncations + report.durability.corrupt_frames_rejected,
            0u);
}

// P18: every journal prefix is recoverable. A toy journal truncated at every byte boundary
// either recovers to some durable tick — with the unit state exactly as it was at that tick —
// or refuses loudly with DATA_LOSS (no valid header/snapshot yet). Nothing in between.
TEST(PropertyTest, EveryJournalPrefixRecoversCleanlyOrFailsLoudly) {
  struct ToyState {
    uint64_t value = 0;
  };

  // Build a reference journal: 6 ticks, value = 100 + tick. expected[t] is the durable value
  // at tick t (expected[0] is the initial snapshot's state).
  std::vector<uint8_t> image;
  std::vector<uint64_t> expected = {100};
  {
    ToyState state{100};
    DurabilityManager writer(DurabilityManager::Options{});
    writer.RegisterUnit(
        "toy", [&state](ByteWriter& w) { w.PutU64(state.value); },
        [&state](ByteReader& r) { return r.Restore(std::tie(state.value)); });
    ASSERT_TRUE(writer.Start(0, {0x42}).ok());
    for (uint64_t tick = 1; tick <= 6; ++tick) {
      state.value = 100 + tick;
      writer.EndTick(tick);
      expected.push_back(state.value);
    }
    image = writer.buffer();
  }

  uint64_t recovered_count = 0;
  uint64_t refused_count = 0;
  for (size_t len = 0; len <= image.size(); ++len) {
    ToyState state{0};
    DurabilityManager reader(DurabilityManager::Options{});
    reader.RegisterUnit(
        "toy", [&state](ByteWriter& w) { w.PutU64(state.value); },
        [&state](ByteReader& r) { return r.Restore(std::tie(state.value)); });
    reader.ReplaceBuffer(std::vector<uint8_t>(image.begin(), image.begin() + len));
    StatusOr<DurabilityManager::RecoveryResult> result = reader.Recover();
    if (result.ok()) {
      ++recovered_count;
      ASSERT_LE(result->durable_tick, 6u) << "prefix len " << len;
      EXPECT_EQ(state.value, expected[result->durable_tick])
          << "prefix len " << len << " recovered tick " << result->durable_tick
          << " with the wrong state";
    } else {
      ++refused_count;
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
          << "prefix len " << len << ": " << result.status().ToString();
    }
  }
  // Short prefixes (no header or no snapshot yet) refuse; everything past the initial
  // snapshot recovers. Both arms must be exercised.
  EXPECT_GT(recovered_count, 0u);
  EXPECT_GT(refused_count, 0u);
  EXPECT_EQ(recovered_count + refused_count, image.size() + 1);
}

}  // namespace
}  // namespace mercurial
