// Tests of the benchmark's own arithmetic: span self time, the report digest, and that the
// traced driver does the same work as FleetStudy on small studies.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/fleet_study.h"
#include "studybench/src/digest.h"
#include "studybench/src/spans.h"
#include "studybench/src/traced_driver.h"
#include "studybench/src/workloads.h"

namespace studybench {
namespace {

using mercurial::StudyReport;

TEST(SpanTracer, SelfTimeSubtractsNestedChildren) {
  SpanTracer tracer;
  const int a = tracer.AddLayer("a");
  const int b = tracer.AddLayer("b");
  const int c = tracer.AddLayer("c");
  const int d = tracer.AddLayer("d");
  tracer.Begin(a, 0);
  tracer.Begin(b, 10);
  tracer.Begin(c, 15);
  tracer.End(25);  // c: 10
  tracer.End(40);  // b: 30, of which c covers 10
  tracer.Begin(d, 50);
  tracer.Begin(b, 60);
  tracer.End(70);  // b again, nested in d: 10
  tracer.End(90);  // d: 40, of which b covers 10
  tracer.End(100); // a: 100, of which b and d cover 70
  EXPECT_EQ(tracer.open_spans(), 0u);

  EXPECT_EQ(tracer.layer(a).total_ns, 100);
  EXPECT_EQ(tracer.layer(a).self_ns, 30);
  EXPECT_EQ(tracer.layer(b).calls, 2u);
  EXPECT_EQ(tracer.layer(b).total_ns, 40);
  EXPECT_EQ(tracer.layer(b).self_ns, 30);
  EXPECT_EQ(tracer.layer(c).self_ns, 10);
  EXPECT_EQ(tracer.layer(d).total_ns, 40);
  EXPECT_EQ(tracer.layer(d).self_ns, 30);
  // Self times partition the root span exactly.
  int64_t self_sum = 0;
  for (int id : {a, b, c, d}) {
    self_sum += tracer.layer(id).self_ns;
  }
  EXPECT_EQ(self_sum, tracer.layer(a).total_ns);
}

TEST(SpanTracer, TickSamplesOnlyForLayersThatRan) {
  SpanTracer tracer;
  const int a = tracer.AddLayer("a");
  const int b = tracer.AddLayer("b");
  tracer.Begin(a, 0);
  tracer.End(5);
  tracer.Begin(a, 10);
  tracer.End(12);
  tracer.EndTick();
  tracer.Begin(b, 20);
  tracer.End(29);
  tracer.EndTick();
  EXPECT_EQ(tracer.layer(a).tick_samples_ns, (std::vector<int64_t>{7}));
  EXPECT_EQ(tracer.layer(b).tick_samples_ns, (std::vector<int64_t>{9}));
}

TEST(SpanTracer, EndWithoutBeginThrows) {
  SpanTracer tracer;
  EXPECT_THROW(tracer.End(1), std::logic_error);
}

TEST(QuantileNs, NearestRank) {
  EXPECT_EQ(QuantileNs({}, 0.5), 0);
  EXPECT_EQ(QuantileNs({5, 1, 3}, 0.5), 3);
  std::vector<int64_t> hundred;
  for (int64_t i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  EXPECT_EQ(QuantileNs(hundred, 0.99), 99);
  EXPECT_EQ(QuantileNs(hundred, 1.0), 100);
}

// Perturbs the `target`-th field VisitReport visits; counts fields when target is out of range.
struct Perturb {
  explicit Perturb(size_t target_index) : target(target_index) {}

  size_t target;
  size_t index = 0;
  std::string name;

  template <class T>
  void operator()(const char* field_name, T& field) {
    if (index++ != target) {
      return;
    }
    name = field_name;
    if constexpr (std::is_same_v<T, bool>) {
      field = !field;
    } else if constexpr (std::is_arithmetic_v<T>) {
      field += 1;
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      field.push_back(0.0);
    } else if constexpr (std::is_same_v<T, mercurial::Histogram>) {
      field.Add(3.0);
    } else {
      field.events.push_back(mercurial::TraceEvent{});
    }
  }
};

StudyReport SmallReport() {
  mercurial::StudyOptions options = MakeStudyOptions("controller_storm", 3);
  options.fleet.machine_count = 20;
  options.duration = mercurial::SimTime::Days(10);
  return mercurial::FleetStudy(options).Run();
}

TEST(Digest, EveryVisitedFieldMovesTheDigest) {
  const StudyReport base = SmallReport();
  const uint64_t base_digest = ReportDigest(base);
  Perturb counter(static_cast<size_t>(-1));
  StudyReport scratch = base;
  VisitReport(scratch, counter);
  ASSERT_GT(counter.index, 100u);
  for (size_t i = 0; i < counter.index; ++i) {
    StudyReport changed = base;
    Perturb perturb(i);
    VisitReport(changed, perturb);
    EXPECT_NE(ReportDigest(changed), base_digest) << "field " << i << " (" << perturb.name << ")";
  }
  // The trace is hashed by content, so its counters move the digest too.
  StudyReport changed = base;
  changed.trace.counters.events_dropped += 1;
  EXPECT_NE(ReportDigest(changed), base_digest);
}

TEST(Digest, MetricsDumpMovesTheCombinedDigest) {
  const StudyReport report = SmallReport();
  mercurial::MetricRegistry metrics;
  const StudyDigest before = DigestStudy(report, metrics);
  metrics.Increment("some.counter");
  const StudyDigest after = DigestStudy(report, metrics);
  EXPECT_EQ(before.report, after.report);
  EXPECT_NE(before.combined, after.combined);
}

// Adds each visited field's size, rounded up to 8-byte slots. Every field of these stats
// structs is 8 bytes wide or padded to 8, so the sum equals sizeof(T) only if every field is
// visited: a new field that the digest does not visit fails the comparison.
struct SlotBytes {
  size_t bytes = 0;
  template <class T>
  void operator()(const char*, T&) {
    bytes += (sizeof(T) + 7) / 8 * 8;
  }
};

template <class T, class VisitFn>
size_t VisitedBytes(VisitFn visit) {
  T value{};
  SlotBytes slots;
  visit(value, slots);
  return slots.bytes;
}

TEST(Digest, StatsStructsAreFullyVisited) {
  EXPECT_EQ(VisitedBytes<mercurial::QuarantineStats>(
                [](auto& s, auto& v) { VisitQuarantineStats(s, v); }),
            sizeof(mercurial::QuarantineStats));
  EXPECT_EQ(VisitedBytes<mercurial::ControlPlaneStats>(
                [](auto& s, auto& v) { VisitControlPlaneStats(s, v); }),
            sizeof(mercurial::ControlPlaneStats));
  EXPECT_EQ(VisitedBytes<mercurial::SchedulerStats>(
                [](auto& s, auto& v) { VisitSchedulerStats(s, v); }),
            sizeof(mercurial::SchedulerStats));
  EXPECT_EQ(VisitedBytes<mercurial::RepairStats>(
                [](auto& s, auto& v) { VisitRepairStats(s, v); }),
            sizeof(mercurial::RepairStats));
  EXPECT_EQ(VisitedBytes<mercurial::DurabilityStats>(
                [](auto& s, auto& v) { VisitDurabilityStats(s, v); }),
            sizeof(mercurial::DurabilityStats));
}

// The traced driver follows FleetStudy stage by stage; on a small version of every workload
// its work counts equal the untraced report's.
TEST(TracedDriver, MatchesFleetStudyOnSmallStudies) {
  for (const std::string& workload : WorkloadNames()) {
    mercurial::StudyOptions options = MakeStudyOptions(workload, 5);
    options.fleet.machine_count = workload == "controller_storm" ? 30 : 60;
    options.duration = mercurial::SimTime::Days(40);
    const StudyReport report = mercurial::FleetStudy(options).Run();
    const TracedStudyResult traced = RunTracedStudy(options);
    SCOPED_TRACE(workload);
    EXPECT_GT(traced.work_units, 0u);
    EXPECT_EQ(traced.work_units, report.work_units_executed);
    EXPECT_EQ(traced.screening.ops_spent, report.screening_ops);
    EXPECT_EQ(traced.screening.screen_failures, report.screen_failures);
    EXPECT_EQ(traced.control_plane.suspects_admitted, report.control_plane.suspects_admitted);
    EXPECT_EQ(traced.quarantine.retirements, report.quarantine.retirements);
    EXPECT_EQ(traced.quarantine.probation_entries, report.quarantine.probation_entries);
    EXPECT_EQ(traced.repair.artifacts_reverified, report.repair.artifacts_reverified);
    EXPECT_EQ(traced.journal.bytes_written, report.durability.bytes_written);
    EXPECT_EQ(traced.trace.events_emitted, report.trace.counters.events_emitted);
    EXPECT_EQ(traced.tracer.open_spans(), 0u);
  }
}

}  // namespace
}  // namespace studybench
