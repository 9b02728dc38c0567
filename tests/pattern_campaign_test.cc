// Pattern-coverage payload tests: record codec round-trips, the report
// byte-identity seam shared with the monolithic bench, and the preset
// table. Durability (shards, resume, SIGKILL, refusals, tampered records)
// is covered for every payload by tests/campaign_test.cc.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/manifest.h"
#include "campaign/merge.h"
#include "campaign/pattern_campaign.h"
#include "campaign/runner.h"
#include "report/report.h"
#include "testgen/pattern_sweep.h"

namespace cmldft {
namespace {

using testgen::PatternSweepConfig;
using testgen::SweepUnitResult;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "cmldft_pattern_" + name;
}

PatternSweepConfig QuickSweep() {
  auto sweep = campaign::PatternSweepPreset("pattern_quick");
  EXPECT_TRUE(sweep.ok());
  return *sweep;
}

/// The monolithic in-memory evaluation every campaign must reproduce.
const std::vector<SweepUnitResult>& DirectQuickUnits() {
  static const std::vector<SweepUnitResult> units = [] {
    const PatternSweepConfig sweep = QuickSweep();
    std::vector<SweepUnitResult> out;
    for (uint64_t id = 0; id < sweep.unit_count(); ++id) {
      auto unit = testgen::EvaluateSweepUnit(sweep, id);
      EXPECT_TRUE(unit.ok()) << unit.status().ToString();
      out.push_back(*unit);
    }
    return out;
  }();
  return units;
}

/// Runs shard i of paths.size() into paths[i] at `threads`.
void RunShards(const PatternSweepConfig& sweep,
               const std::vector<std::string>& paths, int threads) {
  auto plan = campaign::MakePatternPlan(sweep);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (size_t i = 0; i < paths.size(); ++i) {
    std::remove(paths[i].c_str());
    campaign::RunOptions opt;
    opt.shard = {static_cast<uint32_t>(i), static_cast<uint32_t>(paths.size())};
    opt.store_path = paths[i];
    auto stats = campaign::RunCampaign(**plan, threads, opt);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
}

// ------------------------------------------------------------------ codec --

TEST(PatternCodec, SuiteRecordRoundTrips) {
  const PatternSweepConfig sweep = QuickSweep();
  const std::string encoded = campaign::EncodePatternSuiteRecord(sweep);
  auto decoded = campaign::DecodePatternSuiteRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->benchmarks, sweep.benchmarks);
  EXPECT_EQ(decoded->pattern_counts, sweep.pattern_counts);
  EXPECT_EQ(decoded->seed, sweep.seed);
  EXPECT_EQ(decoded->init_max_cycles, sweep.init_max_cycles);
  // Same config, same bytes: the merge divergence check relies on this.
  EXPECT_EQ(campaign::EncodePatternSuiteRecord(*decoded), encoded);
}

TEST(PatternCodec, UnitRecordRoundTrips) {
  SweepUnitResult unit;
  unit.benchmark = 3;
  unit.patterns = 256;
  unit.toggled = 41;
  unit.togglable = 77;
  unit.transitions = 0x123456789abcull;
  unit.init_cycles = 9;
  unit.residual_x = 1;
  unit.dffs = 12;
  const std::string encoded = campaign::EncodePatternUnitRecord(42, unit);
  auto decoded = campaign::DecodePatternUnitRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->unit_id, 42u);
  EXPECT_TRUE(decoded->unit == unit);
}

TEST(PatternCodec, RejectsTruncationAndTrailingBytes) {
  const std::string encoded = campaign::EncodePatternUnitRecord(7, {});
  EXPECT_FALSE(
      campaign::DecodePatternUnitRecord(encoded.substr(0, encoded.size() - 1))
          .ok());
  EXPECT_FALSE(campaign::DecodePatternUnitRecord(encoded + "x").ok());
  EXPECT_FALSE(campaign::DecodePatternUnitRecord("\x09junk").ok());
  // Each decoder takes its own record type only.
  EXPECT_FALSE(campaign::DecodePatternSuiteRecord(encoded).ok());
}

// ------------------------------------------------------------- campaign --

TEST(PatternCampaign, MergedReportJsonMatchesMonolithicAssembly) {
  // The byte-identity seam itself: the report assembled from merged shard
  // units serializes identically to one assembled from the direct run.
  const PatternSweepConfig sweep = QuickSweep();
  const std::vector<std::string> paths = {TempPath("r0.campaign"),
                                          TempPath("r1.campaign")};
  RunShards(sweep, paths, 2);
  auto merged = campaign::MergeStores(paths);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  auto result = campaign::DecodePatternCampaign(*merged);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->units.size(), DirectQuickUnits().size());
  for (size_t i = 0; i < result->units.size(); ++i) {
    EXPECT_TRUE(result->units[i] == DirectQuickUnits()[i]) << "unit " << i;
  }

  report::Report from_merge(testgen::kPatternCoverageExperiment,
                            testgen::kPatternCoveragePaperRef,
                            testgen::kPatternCoverageSummary);
  testgen::FillPatternCoverageReport(result->sweep, result->units, from_merge);
  report::Report from_direct(testgen::kPatternCoverageExperiment,
                             testgen::kPatternCoveragePaperRef,
                             testgen::kPatternCoverageSummary);
  testgen::FillPatternCoverageReport(sweep, DirectQuickUnits(), from_direct);
  EXPECT_EQ(from_merge.ToJson().Dump(), from_direct.ToJson().Dump());

  auto manifest = campaign::BuildCampaignManifest(*merged);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->experiment(), "pattern_campaign_manifest");
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(PatternCampaign, PresetValidation) {
  EXPECT_FALSE(campaign::PatternSweepPreset("pattern_nope").ok());
  auto full = campaign::PatternSweepPreset("pattern_coverage");
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full->unit_count(), 0u);
  for (const char* name : {"pattern_coverage", "pattern_quick"}) {
    auto plan = campaign::PlanForPreset(name);
    ASSERT_TRUE(plan.ok()) << name;
    EXPECT_EQ((*plan)->payload().name, "pattern");
  }
  // The plan refuses an empty sweep instead of planning zero units.
  PatternSweepConfig empty = QuickSweep();
  empty.pattern_counts.clear();
  EXPECT_FALSE(campaign::MakePatternPlan(empty).ok());
}

}  // namespace
}  // namespace cmldft
