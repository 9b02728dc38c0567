// Unit tests for the reproduction-report pipeline: the JSON value type
// (parse/dump round-trips, error positions), the Report/Table emitters,
// and the tolerance-aware golden comparison that tools/golden_check and
// the paper_regression ctest tier are built on.
#include <gtest/gtest.h>

#include <cmath>

#include "report/golden.h"
#include "report/json.h"
#include "report/report.h"

namespace cmldft::report {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, ParseScalars) {
  auto j = Json::Parse("42");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_TRUE(j->is_number());
  EXPECT_EQ(j->AsNumber(), 42.0);

  j = Json::Parse("-3.25e2");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->AsNumber(), -325.0);

  j = Json::Parse("true");
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->AsBool());

  j = Json::Parse("null");
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->is_null());

  j = Json::Parse("\"a\\n\\\"b\\\"\\u0041\"");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->AsString(), "a\n\"b\"A");
}

TEST(Json, ParseNested) {
  auto j = Json::Parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  const Json* a = j->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ(a->at(1).AsNumber(), 2.0);
  EXPECT_EQ(a->at(2).GetString("b"), "c");
  EXPECT_EQ(j->Find("missing"), nullptr);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json o = Json::Object();
  o.Set("zulu", Json::Int(1));
  o.Set("alpha", Json::Int(2));
  o.Set("mike", Json::Int(3));
  EXPECT_EQ(o.member(0).first, "zulu");
  EXPECT_EQ(o.member(1).first, "alpha");
  EXPECT_EQ(o.member(2).first, "mike");
  // Dump reflects that order.
  const std::string s = o.Dump(0);
  EXPECT_LT(s.find("zulu"), s.find("alpha"));
  EXPECT_LT(s.find("alpha"), s.find("mike"));
}

TEST(Json, DumpParseRoundTripPreservesDoubles) {
  const double values[] = {0.0,      1.0 / 3.0,    -1e-17, 3.3878618105473102e1,
                           1e300,    -2.5e-300,    42.0,   123456789012345.0};
  for (double v : values) {
    Json j = Json::Number(v);
    auto back = Json::Parse(j.Dump(0));
    ASSERT_TRUE(back.ok()) << j.Dump(0);
    EXPECT_EQ(back->AsNumber(), v) << j.Dump(0);
  }
}

TEST(Json, IntegersSerializeWithoutExponent) {
  EXPECT_EQ(Json::Int(1234567).Dump(0), "1234567");
  EXPECT_EQ(Json::Int(-42).Dump(0), "-42");
}

TEST(Json, NonFiniteSerializesAsNull) {
  EXPECT_EQ(Json::Number(std::nan("")).Dump(0), "null");
  EXPECT_EQ(Json::Number(INFINITY).Dump(0), "null");
}

TEST(Json, ParseErrorsCarryPosition) {
  auto j = Json::Parse("{\"a\": }");
  EXPECT_FALSE(j.ok());
  j = Json::Parse("[1, 2");
  EXPECT_FALSE(j.ok());
  j = Json::Parse("{} trailing");
  EXPECT_FALSE(j.ok());
  j = Json::Parse("{'single': 1}");
  EXPECT_FALSE(j.ok());
}

// Parse recurses once per array/object level, so nesting is capped at 64
// levels: a 1 MiB run of '[' or of {"a": (the largest body the scheduler
// accepts) is a ParseError, not a stack overflow.
TEST(Json, NestingIsCappedAt64Levels) {
  EXPECT_TRUE(Json::Parse(std::string(64, '[') + std::string(64, ']')).ok());
  std::string objects;
  for (int level = 1; level < 64; ++level) objects += "{\"a\": ";
  EXPECT_TRUE(Json::Parse(objects + "{}" + std::string(63, '}')).ok());
  EXPECT_FALSE(Json::Parse(std::string(65, '[') + std::string(65, ']')).ok());

  const size_t kMiB = size_t{1} << 20;
  objects.clear();
  while (objects.size() < kMiB) objects += "{\"a\":";
  for (const std::string& text : {std::string(kMiB, '['), objects}) {
    auto j = Json::Parse(text);
    ASSERT_FALSE(j.ok()) << text.substr(0, 10);
    EXPECT_EQ(j.status().code(), util::StatusCode::kParseError);
  }
}

// ------------------------------------------------------------- Report --

TEST(Tol, JsonRoundTrip) {
  for (const Tol& t : {Tol::Exact(), Tol::Abs(0.05), Tol::Rel(0.15, 2.0),
                       Tol::Info()}) {
    const Tol back = Tol::FromJson(t.ToJson());
    EXPECT_EQ(back.kind, t.kind);
    EXPECT_EQ(back.value, t.value);
    if (t.kind == Tol::Kind::kRel) EXPECT_EQ(back.floor, t.floor);
  }
}

Json MakeReport(double swing, const char* verdict, double delay) {
  Report rep("demo", "Figure X", "unit-test report");
  Table& t = rep.AddTable("levels", {{"signal", Tol::Exact()},
                                     {"swing", "mV", Tol::Abs(20.0)},
                                     {"note", Tol::Info()}});
  t.NewRow().Str("op").Num("%.1f", swing).Str("whatever");
  rep.AddScalar("delay_ps", delay, "ps", Tol::Rel(0.1, 1.0));
  rep.AddText("verdict", verdict);
  rep.AddInt("count", 7);
  return rep.ToJson();
}

TEST(Report, JsonShape) {
  const Json j = MakeReport(260.0, "pass", 50.0);
  EXPECT_EQ(j.GetString("schema"), "cmldft-report-v1");
  EXPECT_EQ(j.GetString("experiment"), "demo");
  ASSERT_NE(j.Find("scalars"), nullptr);
  ASSERT_NE(j.Find("tables"), nullptr);
  EXPECT_EQ(j.Find("tables")->at(0).GetString("name"), "levels");
}

TEST(Report, TableTextHasHeaderAndRow) {
  Report rep("demo", "ref", "s");
  Table& t = rep.AddTable("x", {{"a", Tol::Exact()}, {"b", "V", Tol::Abs(1)}});
  t.NewRow().Str("hello").Num("%.2f", 1.5);
  const std::string text = t.ToText();
  EXPECT_NE(text.find("hello"), std::string::npos);
  EXPECT_NE(text.find("1.50"), std::string::npos);
  EXPECT_NE(text.find("b (V)"), std::string::npos);
}

// ------------------------------------------------------------- Golden --

TEST(Golden, IdenticalReportsMatch) {
  const GoldenDiff d =
      CompareReports(MakeReport(260.0, "pass", 50.0), MakeReport(260.0, "pass", 50.0));
  EXPECT_TRUE(d.ok()) << d.Summary();
  EXPECT_GT(d.values_compared, 0);
}

TEST(Golden, WithinToleranceMatches) {
  // swing: Abs(20) -> 15 mV off is fine. delay: Rel(0.1) -> 4% off is fine.
  const GoldenDiff d =
      CompareReports(MakeReport(275.0, "pass", 52.0), MakeReport(260.0, "pass", 50.0));
  EXPECT_TRUE(d.ok()) << d.Summary();
}

TEST(Golden, BeyondAbsToleranceIsDrift) {
  const GoldenDiff d =
      CompareReports(MakeReport(290.0, "pass", 50.0), MakeReport(260.0, "pass", 50.0));
  EXPECT_FALSE(d.ok());
}

TEST(Golden, BeyondRelToleranceIsDrift) {
  const GoldenDiff d =
      CompareReports(MakeReport(260.0, "pass", 60.0), MakeReport(260.0, "pass", 50.0));
  EXPECT_FALSE(d.ok());
}

TEST(Golden, VerdictStringChangeIsDrift) {
  const GoldenDiff d =
      CompareReports(MakeReport(260.0, "FAIL", 50.0), MakeReport(260.0, "pass", 50.0));
  EXPECT_FALSE(d.ok());
}

TEST(Golden, InfoColumnsNeverDiff) {
  Json a = MakeReport(260.0, "pass", 50.0);
  Json g = MakeReport(260.0, "pass", 50.0);
  // Mutate the Info cell ("note" column, index 2) of the only row.
  Json& tables = *const_cast<Json*>(a.Find("tables"));
  Json& row = const_cast<Json&>(tables.at(0).Find("rows")->at(0));
  const_cast<Json&>(row.at(2)) = Json::Str("completely different");
  const GoldenDiff d = CompareReports(a, g);
  EXPECT_TRUE(d.ok()) << d.Summary();
}

TEST(Golden, MissingScalarIsDrift) {
  Json a = MakeReport(260.0, "pass", 50.0);
  Json g = MakeReport(260.0, "pass", 50.0);
  // Golden knows a scalar the actual run no longer emits.
  Json extra = Json::Object();
  extra.Set("name", Json::Str("vanished_metric"));
  extra.Set("tol", Tol::Exact().ToJson());
  extra.Set("value", Json::Number(1.0));
  const_cast<Json*>(g.Find("scalars"))->Append(std::move(extra));
  EXPECT_FALSE(CompareReports(a, g).ok());
}

TEST(Golden, ExtraScalarIsDrift) {
  Json a = MakeReport(260.0, "pass", 50.0);
  Json g = MakeReport(260.0, "pass", 50.0);
  Json extra = Json::Object();
  extra.Set("name", Json::Str("new_metric"));
  extra.Set("tol", Tol::Exact().ToJson());
  extra.Set("value", Json::Number(1.0));
  const_cast<Json*>(a.Find("scalars"))->Append(std::move(extra));
  EXPECT_FALSE(CompareReports(a, g).ok());
}

TEST(Golden, RowCountChangeIsDrift) {
  Json a = MakeReport(260.0, "pass", 50.0);
  Json g = MakeReport(260.0, "pass", 50.0);
  Json row = Json::Array();
  row.Append(Json::Str("opb"));
  row.Append(Json::Number(260.0));
  row.Append(Json::Str("x"));
  const_cast<Json*>(
      const_cast<Json*>(a.Find("tables"))->at(0).Find("rows"))
      ->Append(std::move(row));
  EXPECT_FALSE(CompareReports(a, g).ok());
}

TEST(Golden, ExtraCellsOnBothSidesIsDrift) {
  // Cells beyond the declared columns have no tolerance, so they must be
  // flagged even when golden and actual drift in lockstep.
  Json a = MakeReport(260.0, "pass", 50.0);
  Json g = MakeReport(260.0, "pass", 50.0);
  for (Json* doc : {&a, &g}) {
    Json& row = const_cast<Json&>(
        const_cast<Json*>(doc->Find("tables"))->at(0).Find("rows")->at(0));
    row.Append(Json::Number(999.0));
  }
  EXPECT_FALSE(CompareReports(a, g).ok());
}

Json Gbench(std::initializer_list<const char*> names) {
  Json j = Json::Object();
  Json arr = Json::Array();
  for (const char* n : names) {
    Json b = Json::Object();
    b.Set("name", Json::Str(n));
    b.Set("run_type", Json::Str("iteration"));
    b.Set("real_time", Json::Number(123.456));  // must never be compared
    arr.Append(std::move(b));
  }
  j.Set("benchmarks", std::move(arr));
  return j;
}

TEST(Golden, GbenchStructureMatchIgnoresTimings) {
  const GoldenDiff d = CompareGbenchStructure(Gbench({"BM_Dc", "BM_Tran"}),
                                              Gbench({"BM_Dc", "BM_Tran"}));
  EXPECT_TRUE(d.ok()) << d.Summary();
}

TEST(Golden, GbenchMissingBenchmarkIsDrift) {
  EXPECT_FALSE(
      CompareGbenchStructure(Gbench({"BM_Dc"}), Gbench({"BM_Dc", "BM_Tran"}))
          .ok());
  EXPECT_FALSE(
      CompareGbenchStructure(Gbench({"BM_Dc", "BM_New"}), Gbench({"BM_Dc"}))
          .ok());
}

TEST(Golden, GbenchMultiplicityDriftIsDetected) {
  // Same name set but different repetition counts must not pass.
  EXPECT_FALSE(CompareGbenchStructure(Gbench({"BM_Dc"}),
                                      Gbench({"BM_Dc", "BM_Dc", "BM_Dc"}))
                   .ok());
  EXPECT_FALSE(CompareGbenchStructure(Gbench({"BM_Dc", "BM_Dc"}),
                                      Gbench({"BM_Dc"}))
                   .ok());
}

// google-benchmark JSON with release provenance context and per-name
// cpu_time values, for the tolerant perf gate.
Json GbenchPerf(std::initializer_list<std::pair<const char*, double>> runs,
                const char* library_build_type = "release") {
  Json j = Json::Object();
  Json ctx = Json::Object();
  ctx.Set("cmldft_build_type", Json::Str("Release"));
  ctx.Set("cmldft_assertions", Json::Str("disabled"));
  if (library_build_type != nullptr) {
    ctx.Set("library_build_type", Json::Str(library_build_type));
  }
  j.Set("context", std::move(ctx));
  Json arr = Json::Array();
  for (const auto& [name, cpu] : runs) {
    Json b = Json::Object();
    b.Set("name", Json::Str(name));
    b.Set("run_type", Json::Str("iteration"));
    b.Set("cpu_time", Json::Number(cpu));
    arr.Append(std::move(b));
  }
  j.Set("benchmarks", std::move(arr));
  return j;
}

const std::vector<std::string> kGatedFamilies = {"BM_TransientFastPath",
                                                 "BM_HierTransient"};

TEST(Golden, BenchPerfWithinToleranceAndFasterPass) {
  const Json base = GbenchPerf({{"BM_TransientFastPath/0", 100.0},
                               {"BM_HierTransient/256", 200.0}});
  // +15% and -40%: both inside a 20% regression gate.
  const Json run = GbenchPerf({{"BM_TransientFastPath/0", 115.0},
                              {"BM_HierTransient/256", 120.0}});
  const GoldenDiff d = CompareGbenchPerf(run, base, 0.20, kGatedFamilies);
  EXPECT_TRUE(d.ok()) << d.Summary();
  EXPECT_EQ(d.values_compared, 2);
}

TEST(Golden, BenchPerfRegressionBeyondToleranceFails) {
  const Json base = GbenchPerf({{"BM_TransientFastPath/0", 100.0}});
  const Json run = GbenchPerf({{"BM_TransientFastPath/0", 121.0}});
  EXPECT_FALSE(CompareGbenchPerf(run, base, 0.20, kGatedFamilies).ok());
  // The same run passes a looser gate.
  EXPECT_TRUE(CompareGbenchPerf(run, base, 0.25, kGatedFamilies).ok());
}

// The gate reruns each row three times and compares their median with the
// baseline's, itself the median of its repetitions.
TEST(Golden, BenchPerfOneSlowRepetitionOfThreePasses) {
  const Json base = GbenchPerf({{"BM_TransientFastPath/0", 100.0}});
  const Json run = GbenchPerf({{"BM_TransientFastPath/0", 140.0},
                              {"BM_TransientFastPath/0", 100.0},
                              {"BM_TransientFastPath/0", 105.0}});
  const GoldenDiff d = CompareGbenchPerf(run, base, 0.20, kGatedFamilies);
  EXPECT_TRUE(d.ok()) << d.Summary();
  EXPECT_EQ(d.values_compared, 1);
}

TEST(Golden, BenchPerfTwoSlowRepetitionsOfThreeFail) {
  const Json base = GbenchPerf({{"BM_TransientFastPath/0", 100.0}});
  const Json run = GbenchPerf({{"BM_TransientFastPath/0", 90.0},
                              {"BM_TransientFastPath/0", 125.0},
                              {"BM_TransientFastPath/0", 130.0}});
  EXPECT_FALSE(CompareGbenchPerf(run, base, 0.20, kGatedFamilies).ok());
}

TEST(Golden, BenchPerfIgnoresUngatedFamilies) {
  // A 10x regression outside the gated families is not this gate's
  // business (the structural --gbench check still pins the name list).
  const Json base = GbenchPerf({{"BM_DenseLuFactorSolve/64", 10.0}});
  const Json run = GbenchPerf({{"BM_DenseLuFactorSolve/64", 100.0}});
  const GoldenDiff d = CompareGbenchPerf(run, base, 0.20, kGatedFamilies);
  EXPECT_TRUE(d.ok()) << d.Summary();
  EXPECT_EQ(d.values_compared, 0);
}

TEST(Golden, BenchPerfMissingGatedBenchmarkIsDrift) {
  const Json base = GbenchPerf({{"BM_HierTransient/256", 200.0}});
  const Json run = GbenchPerf({{"BM_TransientFastPath/0", 100.0}});
  EXPECT_FALSE(CompareGbenchPerf(run, base, 0.20, kGatedFamilies).ok());
}

TEST(Golden, BenchPerfProvenanceMismatchBeatsTimings) {
  // The committed-baseline bug this gate exists to catch: a baseline
  // whose harness library was built debug must not be silently compared
  // against a release-harness run (and vice versa) — even when every
  // timing is within tolerance.
  const Json base = GbenchPerf({{"BM_TransientFastPath/0", 100.0}}, "debug");
  const Json run = GbenchPerf({{"BM_TransientFastPath/0", 100.0}}, "release");
  EXPECT_FALSE(CompareGbenchPerf(run, base, 0.20, kGatedFamilies).ok());
  // Consistent flavours (even both-debug) compare fine — the tag must
  // simply be present and agree on both sides.
  const Json run2 = GbenchPerf({{"BM_TransientFastPath/0", 100.0}}, "debug");
  EXPECT_TRUE(CompareGbenchPerf(run2, base, 0.20, kGatedFamilies).ok());
  // A report missing the tag entirely is a provenance failure too.
  const Json untagged =
      GbenchPerf({{"BM_TransientFastPath/0", 100.0}}, nullptr);
  EXPECT_FALSE(CompareGbenchPerf(untagged, base, 0.20, kGatedFamilies).ok());
}

TEST(Golden, BenchPerfDebianDebugLibraryIsLabeledNotGated) {
  // Debian/Ubuntu ship libbenchmark-dev without NDEBUG, so the harness
  // self-reports library_build_type "debug" even in a -O2 distro build.
  // A matched debug-vs-debug comparison must pass (only the harness
  // overhead shifts, not the code under test) but carry an explanatory
  // note on each side so the flavour is visible in the summary.
  const Json base = GbenchPerf({{"BM_HierTransient/64", 100.0}}, "debug");
  const Json run = GbenchPerf({{"BM_HierTransient/64", 105.0}}, "debug");
  const GoldenDiff d = CompareGbenchPerf(run, base, 0.20, kGatedFamilies);
  EXPECT_TRUE(d.ok()) << d.Summary();
  ASSERT_EQ(d.notes.size(), 2u);
  EXPECT_NE(d.notes[0].find("distro-packaged"), std::string::npos);
  EXPECT_NE(d.Summary().find("note:"), std::string::npos);
  // Release-flavour comparisons stay note-free.
  const Json rbase = GbenchPerf({{"BM_HierTransient/64", 100.0}}, "release");
  const Json rrun = GbenchPerf({{"BM_HierTransient/64", 105.0}}, "release");
  EXPECT_TRUE(CompareGbenchPerf(rrun, rbase, 0.20, kGatedFamilies).notes.empty());
}

}  // namespace
}  // namespace cmldft::report
