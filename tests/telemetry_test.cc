// Telemetry registry semantics and the contracts the rest of the suite
// leans on: exact cross-thread merging, schema-stable snapshots, JSON
// round-tripping through report::Json, golden schema comparison, the
// homotopy stage-count identity against DcResult, and the screening
// engine's no-silent-failure guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/screening.h"
#include "devices/diode.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "netlist/netlist.h"
#include "report/golden.h"
#include "report/telemetry_json.h"
#include "sim/dc.h"
#include "util/telemetry.h"

namespace cmldft {
namespace {

namespace telemetry = util::telemetry;
using netlist::kGroundNode;

// --- registry semantics ---------------------------------------------------

TEST(TelemetryRegistry, CounterAccumulatesAcrossHandles) {
  telemetry::Reset();
  const telemetry::Counter a = telemetry::GetCounter("test.reg.shared");
  const telemetry::Counter b = telemetry::GetCounter("test.reg.shared");
  a.Add(3);
  b.Increment();
  EXPECT_EQ(telemetry::Capture().Value("test.reg.shared"), 4u);
}

TEST(TelemetryRegistry, NeverTouchedMetricAppearsInSnapshot) {
  (void)telemetry::GetCounter("test.reg.never_touched");
  const telemetry::Snapshot snap = telemetry::Capture();
  const telemetry::MetricValue* m = snap.Find("test.reg.never_touched");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, telemetry::Kind::kCounter);
  EXPECT_EQ(m->count, 0u);
}

TEST(TelemetryRegistry, SnapshotIsSortedByName) {
  (void)telemetry::GetCounter("test.reg.zzz");
  (void)telemetry::GetCounter("test.reg.aaa");
  const telemetry::Snapshot snap = telemetry::Capture();
  EXPECT_TRUE(std::is_sorted(
      snap.metrics.begin(), snap.metrics.end(),
      [](const telemetry::MetricValue& x, const telemetry::MetricValue& y) {
        return x.name < y.name;
      }));
}

TEST(TelemetryRegistry, TimerAccumulatesCountAndSeconds) {
  telemetry::Reset();
  const telemetry::Timer t = telemetry::GetTimer("test.reg.timer");
  t.RecordSeconds(0.25);
  t.RecordSeconds(0.5);
  const telemetry::Snapshot snap = telemetry::Capture();
  const telemetry::MetricValue* m = snap.Find("test.reg.timer");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, telemetry::Kind::kTimer);
  EXPECT_EQ(m->count, 2u);
  EXPECT_NEAR(m->total_seconds, 0.75, 1e-9);
}

TEST(TelemetryRegistry, ScopedTimerRecordsOneSample) {
  telemetry::Reset();
  const telemetry::Timer t = telemetry::GetTimer("test.reg.span");
  { telemetry::ScopedTimer span(t); }
  const telemetry::Snapshot snap = telemetry::Capture();
  const telemetry::MetricValue* m = snap.Find("test.reg.span");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 1u);
  EXPECT_GE(m->total_seconds, 0.0);
}

TEST(TelemetryRegistry, HistogramBucketEdgesAreInclusiveUpperBounds) {
  telemetry::Reset();
  const telemetry::Histogram h =
      telemetry::GetHistogram("test.reg.hist", {1.0, 10.0, 100.0});
  h.Record(0.5);     // <= 1       -> bucket 0
  h.Record(1.0);     // == edge    -> bucket 0 (inclusive upper bound)
  h.Record(5.0);     // <= 10      -> bucket 1
  h.Record(10.0);    //            -> bucket 1
  h.Record(50.0);    // <= 100     -> bucket 2
  h.Record(1000.0);  // overflow   -> bucket 3
  const telemetry::Snapshot snap = telemetry::Capture();
  const telemetry::MetricValue* m = snap.Find("test.reg.hist");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, telemetry::Kind::kHistogram);
  EXPECT_EQ(m->count, 6u);
  ASSERT_EQ(m->bounds, (std::vector<double>{1.0, 10.0, 100.0}));
  EXPECT_EQ(m->buckets, (std::vector<uint64_t>{2, 2, 1, 1}));
}

TEST(TelemetryRegistry, ResetZeroesValuesButKeepsRegistrations) {
  const telemetry::Counter c = telemetry::GetCounter("test.reg.resettable");
  c.Add(7);
  telemetry::Reset();
  const telemetry::Snapshot snap = telemetry::Capture();
  const telemetry::MetricValue* m = snap.Find("test.reg.resettable");
  ASSERT_NE(m, nullptr) << "Reset() must not unregister metrics";
  EXPECT_EQ(m->count, 0u);
  // The instrumented solver metrics stay registered too (stable schema).
  EXPECT_NE(snap.Find("sim.newton.iterations"), nullptr);
  EXPECT_NE(snap.Find("linalg.sparse_lu.factors"), nullptr);
}

TEST(TelemetryRegistry, DigestListsEveryKind) {
  (void)telemetry::GetCounter("test.reg.digest_counter");
  (void)telemetry::GetTimer("test.reg.digest_timer");
  const std::string digest = telemetry::DigestToText(telemetry::Capture());
  EXPECT_NE(digest.find("test.reg.digest_counter"), std::string::npos);
  EXPECT_NE(digest.find("test.reg.digest_timer"), std::string::npos);
  EXPECT_NE(digest.find("sim.tran.step_size"), std::string::npos);
}

// --- cross-thread merging -------------------------------------------------

TEST(TelemetryMerge, ShortLivedThreadsMergeExactly) {
  telemetry::Reset();
  const telemetry::Counter c = telemetry::GetCounter("test.merge.counter");
  const telemetry::Histogram h =
      telemetry::GetHistogram("test.merge.hist", {10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        for (int i = 0; i < kPerThread; ++i) {
          c.Increment();
          h.Record(w < 4 ? 1.0 : 100.0);
        }
      });
    }
    for (auto& t : workers) t.join();
  }
  // All workers have exited: their shards were retired, and the merge must
  // be exact — this is the property the determinism suite depends on.
  const telemetry::Snapshot snap = telemetry::Capture();
  EXPECT_EQ(snap.Value("test.merge.counter"),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const telemetry::MetricValue* m = snap.Find("test.merge.hist");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->buckets,
            (std::vector<uint64_t>{4 * kPerThread, 4 * kPerThread}));
}

// Owners add to their shards with a relaxed load and store, not a locked
// read-modify-write, while the main thread captures and exiting workers
// retire their shards. Live totals must only grow and never show a torn
// update; after join they are exact. The CI thread-sanitizer job runs it.
TEST(TelemetryMerge, CaptureWhileThreadsRecord) {
  telemetry::Reset();
  const telemetry::Counter c = telemetry::GetCounter("test.merge.live_counter");
  const telemetry::Timer t = telemetry::GetTimer("test.merge.live_timer");
  const telemetry::Histogram h =
      telemetry::GetHistogram("test.merge.live_hist", {10.0});
  constexpr int kThreads = 4;
  constexpr uint64_t kMinPerThread = 20000;
  constexpr int kMinCaptures = 20;
  std::atomic<int> running{kThreads};
  std::atomic<int> captures{0};
  std::atomic<uint64_t> records{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      // Keep recording until the main thread has captured several times,
      // so recording and capturing overlap.
      uint64_t n = 0;
      while (n < kMinPerThread || captures.load() < kMinCaptures) {
        c.Add(2);
        t.RecordSeconds(0.5);
        h.Record(1.0);
        ++n;
      }
      records.fetch_add(n);
      running.fetch_sub(1);
    });
  }
  uint64_t last = 0;
  while (running.load() > 0) {
    const uint64_t now =
        telemetry::Capture().Value("test.merge.live_counter");
    EXPECT_GE(now, last);
    EXPECT_EQ(now % 2, 0u);
    last = now;
    captures.fetch_add(1);
  }
  for (auto& worker : workers) worker.join();

  const uint64_t n = records.load();
  const telemetry::Snapshot snap = telemetry::Capture();
  EXPECT_EQ(snap.Value("test.merge.live_counter"), 2 * n);
  const telemetry::MetricValue* timer = snap.Find("test.merge.live_timer");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->count, n);
  EXPECT_NEAR(timer->total_seconds, 0.5 * static_cast<double>(n), 1e-6);
  const telemetry::MetricValue* hist = snap.Find("test.merge.live_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->buckets, (std::vector<uint64_t>{n, 0}));
}

// --- JSON round-trip ------------------------------------------------------

TEST(TelemetryJson, SnapshotRoundTripsThroughJsonText) {
  telemetry::Reset();
  telemetry::GetCounter("test.json.counter").Add(42);
  telemetry::GetTimer("test.json.timer").RecordSeconds(0.125);
  telemetry::GetHistogram("test.json.hist", {1e-12, 1e-9}).Record(5e-10);
  const telemetry::Snapshot original = telemetry::Capture();

  const report::Json json = report::TelemetrySnapshotToJson(original);
  EXPECT_EQ(json.GetString("schema"), "cmldft-telemetry-v1");
  // Through text and back: Dump/Parse must not lose precision or fields.
  auto reparsed = report::Json::Parse(json.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  auto restored = report::TelemetrySnapshotFromJson(*reparsed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  ASSERT_EQ(restored->metrics.size(), original.metrics.size());
  for (size_t i = 0; i < original.metrics.size(); ++i) {
    const telemetry::MetricValue& a = original.metrics[i];
    const telemetry::MetricValue& b = restored->metrics[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind) << a.name;
    EXPECT_EQ(a.count, b.count) << a.name;
    EXPECT_EQ(a.total_seconds, b.total_seconds) << a.name;
    EXPECT_EQ(a.bounds, b.bounds) << a.name;
    EXPECT_EQ(a.buckets, b.buckets) << a.name;
  }
}

TEST(TelemetryJson, RejectsWrongSchemaString) {
  report::Json doc = report::Json::Object();
  doc.Set("schema", report::Json::Str("cmldft-report-v1"));
  doc.Set("metrics", report::Json::Array());
  EXPECT_FALSE(report::TelemetrySnapshotFromJson(doc).ok());
}

// --- golden schema comparison ---------------------------------------------

report::Json TestSnapshotJson() {
  telemetry::Reset();
  telemetry::GetCounter("test.golden.counter").Add(5);
  telemetry::GetHistogram("test.golden.hist", {1.0, 2.0}).Record(1.5);
  return report::TelemetrySnapshotToJson(telemetry::Capture());
}

TEST(TelemetryGolden, IdenticalSnapshotsCompareClean) {
  const report::Json doc = TestSnapshotJson();
  const report::GoldenDiff diff = report::CompareTelemetrySchema(doc, doc);
  EXPECT_TRUE(diff.ok()) << diff.Summary();
  EXPECT_GT(diff.values_compared, 0);
}

TEST(TelemetryGolden, ValueDriftIsNotSchemaDrift) {
  // The schema check pins names/kinds/bounds, not counts: a snapshot from a
  // longer run must still pass against the committed golden.
  const report::Json golden = TestSnapshotJson();
  telemetry::GetCounter("test.golden.counter").Add(999);
  const report::Json actual =
      report::TelemetrySnapshotToJson(telemetry::Capture());
  EXPECT_TRUE(report::CompareTelemetrySchema(actual, golden).ok());
}

TEST(TelemetryGolden, MissingMetricIsFlagged) {
  const report::Json golden = TestSnapshotJson();
  // A fresh metric registered after the golden was cut: present in actual,
  // absent from golden -> drift in one direction...
  (void)telemetry::GetCounter("test.golden.new_metric");
  const report::Json actual =
      report::TelemetrySnapshotToJson(telemetry::Capture());
  EXPECT_FALSE(report::CompareTelemetrySchema(actual, golden).ok());
  // ...and a golden metric missing from the actual snapshot in the other.
  EXPECT_FALSE(report::CompareTelemetrySchema(golden, actual).ok());
}

report::Json ParseOrDie(const char* text) {
  auto parsed = report::Json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

TEST(TelemetryGolden, HistogramBoundsChangeIsFlagged) {
  // Same metric names and kinds, but the histogram was re-bucketed in the
  // "actual" build: the comparator must treat bucket edges as schema.
  const report::Json golden = ParseOrDie(R"({
    "schema": "cmldft-telemetry-v1",
    "metrics": [{"name": "h", "kind": "histogram", "count": 0,
                 "bounds": [1.0, 2.0], "buckets": [0, 0, 0]}]
  })");
  const report::Json actual = ParseOrDie(R"({
    "schema": "cmldft-telemetry-v1",
    "metrics": [{"name": "h", "kind": "histogram", "count": 0,
                 "bounds": [1.0, 3.0], "buckets": [0, 0, 0]}]
  })");
  EXPECT_TRUE(report::CompareTelemetrySchema(golden, golden).ok());
  EXPECT_FALSE(report::CompareTelemetrySchema(actual, golden).ok());
}

TEST(TelemetryGolden, KindChangeIsFlagged) {
  const report::Json golden = ParseOrDie(R"({
    "schema": "cmldft-telemetry-v1",
    "metrics": [{"name": "m", "kind": "counter", "value": 3}]
  })");
  const report::Json actual = ParseOrDie(R"({
    "schema": "cmldft-telemetry-v1",
    "metrics": [{"name": "m", "kind": "timer", "count": 3,
                 "total_seconds": 0.5}]
  })");
  EXPECT_FALSE(report::CompareTelemetrySchema(actual, golden).ok());
}

TEST(TelemetryGolden, WrongDocumentKindIsFlagged) {
  report::Json not_telemetry = report::Json::Object();
  not_telemetry.Set("schema", report::Json::Str("cmldft-report-v1"));
  const report::GoldenDiff diff =
      report::CompareTelemetrySchema(not_telemetry, TestSnapshotJson());
  EXPECT_FALSE(diff.ok());
}

// --- homotopy stage accounting (satellite 1) ------------------------------

TEST(TelemetryHomotopy, PlainNewtonSolveRecordsNoStages) {
  netlist::Netlist nl;
  const auto a = nl.AddNode("a");
  nl.AddDevice(std::make_unique<devices::VSource>("V1", a, kGroundNode,
                                                  devices::Waveform::Dc(1.0)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", a, kGroundNode, 1e3));
  telemetry::Reset();
  auto r = sim::SolveDc(nl);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->homotopy_stages, 0);
  const telemetry::Snapshot snap = telemetry::Capture();
  EXPECT_EQ(snap.Value("sim.dc.solves"), 1u);
  EXPECT_EQ(snap.Value("sim.dc.plain_newton_successes"), 1u);
  EXPECT_EQ(snap.Value("sim.dc.gmin_stages"), 0u);
  EXPECT_EQ(snap.Value("sim.dc.source_steps"), 0u);
  EXPECT_EQ(snap.Value("sim.dc.failures"), 0u);
}

TEST(TelemetryHomotopy, StageCountersMatchDcResultOnStiffDiodeStack) {
  // A 12-diode series stack from a 60 V supply — stiffer than sim_test.cc's
  // six-diode version, which plain (damped) Newton solves unaided: here it
  // fails from zero and the homotopy machinery must engage.
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  nl.AddDevice(std::make_unique<devices::VSource>("V1", vin, kGroundNode,
                                                  devices::Waveform::Dc(60.0)));
  devices::DiodeParams dp;
  dp.is = 1e-16;
  netlist::NodeId prev = vin;
  for (int i = 0; i < 12; ++i) {
    const auto next = nl.AddNode("n" + std::to_string(i));
    nl.AddDevice(std::make_unique<devices::Diode>("D" + std::to_string(i),
                                                  prev, next, dp));
    prev = next;
  }
  nl.AddDevice(
      std::make_unique<devices::Resistor>("R1", prev, kGroundNode, 1e3));

  telemetry::Reset();
  auto r = sim::SolveDc(nl);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->homotopy_stages, 0) << "circuit no longer needs homotopy; "
                                      "pick a stiffer one for this test";

  const telemetry::Snapshot snap = telemetry::Capture();
  EXPECT_EQ(snap.Value("sim.dc.solves"), 1u);
  EXPECT_EQ(snap.Value("sim.dc.plain_newton_successes"), 0u);
  // The identity the instrumentation promises: every ++stages in the
  // homotopy loop has exactly one adjacent telemetry increment, so the two
  // counters partition DcResult::homotopy_stages.
  EXPECT_EQ(snap.Value("sim.dc.gmin_stages") + snap.Value("sim.dc.source_steps"),
            static_cast<uint64_t>(r->homotopy_stages));
  // Some fallback engaged, and exactly one of the escalation rungs won.
  EXPECT_GT(snap.Value("sim.dc.gmin_stages"), 0u);
  EXPECT_EQ(snap.Value("sim.dc.gmin_ladder_successes") +
                snap.Value("sim.dc.source_stepping_successes"),
            1u);
  EXPECT_EQ(snap.Value("sim.dc.failures"), 0u);
}

TEST(TelemetryHomotopy, SweepStagesSumAcrossPoints) {
  // DC sweep: per-point homotopy stages must sum to the telemetry total.
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  const auto a = nl.AddNode("a");
  nl.AddDevice(std::make_unique<devices::VSource>("V1", vin, kGroundNode,
                                                  devices::Waveform::Dc(0.0)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, a, 1e3));
  nl.AddDevice(std::make_unique<devices::Diode>("D1", a, kGroundNode));
  std::vector<double> values = {0.0, 1.0, 2.0, 3.0};
  telemetry::Reset();
  auto sweep = sim::DcSweepVSource(nl, "V1", values);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  uint64_t expected = 0;
  for (const auto& pt : *sweep) {
    expected += static_cast<uint64_t>(pt.result.homotopy_stages);
  }
  const telemetry::Snapshot snap = telemetry::Capture();
  EXPECT_EQ(snap.Value("sim.dc.solves"), values.size());
  EXPECT_EQ(snap.Value("sim.dc.gmin_stages") + snap.Value("sim.dc.source_steps"),
            expected);
}

// --- screening failure accounting (satellite 4) ---------------------------

TEST(ScreeningFailures, ClassifySplitsFailuresByBiasPoint) {
  core::DefectOutcome out;
  out.converged = false;
  out.no_bias_point = false;
  EXPECT_EQ(out.Classify(), core::FaultClass::kUnresolved);
  out.no_bias_point = true;
  EXPECT_EQ(out.Classify(), core::FaultClass::kCatastrophic);
  EXPECT_EQ(core::FaultClassName(core::FaultClass::kUnresolved), "unresolved");
}

TEST(ScreeningFailures, UnresolvedNeverCountsAsCoverage) {
  core::ScreeningReport rep;
  core::DefectOutcome logic;
  logic.converged = true;
  logic.logic_fail = true;
  core::DefectOutcome unresolved;
  unresolved.converged = false;  // bias point exists -> solver artifact
  core::DefectOutcome catastrophic;
  catastrophic.converged = false;
  catastrophic.no_bias_point = true;
  rep.outcomes = {logic, unresolved, catastrophic};
  EXPECT_EQ(rep.CountClass(core::FaultClass::kUnresolved), 1);
  // logic + catastrophic detected, unresolved excluded from both numbers.
  EXPECT_DOUBLE_EQ(rep.ConventionalCoverage(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(rep.CombinedCoverage(), 2.0 / 3.0);
}

/// A one-buffer chain whose universe is its pipes at `resistance` only.
core::ScreeningOptions PipesOnly(double resistance) {
  core::ScreeningOptions opt;
  opt.chain_length = 1;
  opt.sim_time = 20e-9;
  opt.enumeration.pipe_values = {resistance};
  opt.enumeration.transistor_shorts = false;
  opt.enumeration.transistor_opens = false;
  opt.enumeration.resistor_shorts = false;
  opt.enumeration.resistor_opens = false;
  opt.enumeration.output_bridges = false;
  opt.threads = 1;
  return opt;
}

TEST(ScreeningFailures, NonPositivePipeResistanceIsRefused) {
  // A 0 Ohm pipe would stamp an infinite conductance: the screening run
  // refuses it up front, naming the defect, like any resistance that is
  // not finite and > 0.
  for (double r : {0.0, -1.0, std::nan("")}) {
    auto rep = core::ScreenBufferChain(PipesOnly(r));
    ASSERT_FALSE(rep.ok()) << r;
    EXPECT_EQ(rep.status().code(), util::StatusCode::kInvalidArgument) << r;
    EXPECT_NE(rep.status().message().find("pipe("), std::string::npos)
        << rep.status().ToString();
    EXPECT_NE(rep.status().message().find("finite and > 0"),
              std::string::npos)
        << rep.status().ToString();
  }
}

TEST(ScreeningFailures, FailedRunsAreNeverDropped) {
  // A 1e-12 Ohm pipe is a near-dead short that no defect run survives.
  // The regression: failures must surface as classified outcomes carrying
  // the solver error, not vanish from the report.
  telemetry::Reset();
  auto rep = core::ScreenBufferChain(PipesOnly(1e-12));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_EQ(rep->total(), 3);
  for (const auto& o : rep->outcomes) {
    EXPECT_FALSE(o.converged) << o.defect.Id();
    EXPECT_FALSE(o.error.empty()) << o.defect.Id();
  }
  // Two destroy the bias point (catastrophic, a genuine detection); one
  // leaves it and only the transient stalls (unresolved, never coverage).
  EXPECT_EQ(rep->CountClass(core::FaultClass::kCatastrophic), 2);
  EXPECT_EQ(rep->CountClass(core::FaultClass::kUnresolved), 1);
  EXPECT_DOUBLE_EQ(rep->ConventionalCoverage(), 2.0 / 3.0);

  const telemetry::Snapshot snap = telemetry::Capture();
  EXPECT_EQ(snap.Value("core.screening.campaigns"), 1u);
  EXPECT_EQ(snap.Value("core.screening.defects_screened"), 3u);
  EXPECT_EQ(snap.Value("core.screening.class.catastrophic"), 2u);
  EXPECT_EQ(snap.Value("core.screening.class.unresolved"), 1u);
  EXPECT_EQ(snap.Value("core.screening.unresolved"), 1u);
  // Every screened defect lands in exactly one class tally.
  uint64_t class_sum = 0;
  for (const telemetry::MetricValue& m : snap.metrics) {
    if (m.name.rfind("core.screening.class.", 0) == 0) class_sum += m.count;
  }
  EXPECT_EQ(class_sum, 3u);
}

}  // namespace
}  // namespace cmldft
