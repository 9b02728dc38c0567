// Characterization payload tests: record codec round-trips, Monte-Carlo
// sampling statistics, the report byte-identity seam shared with the
// monolithic bench, fingerprint perturbation, and the preset table.
// Durability (shards, resume, SIGKILL, refusals, tampered records) is
// covered for every payload by tests/campaign_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/characterize_campaign.h"
#include "campaign/manifest.h"
#include "campaign/merge.h"
#include "campaign/runner.h"
#include "cml/variation.h"
#include "core/characterize.h"
#include "report/report.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace cmldft {
namespace {

using core::CharacterizationConfig;
using core::CharacterizationUnitResult;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "cmldft_characterize_" + name;
}

CharacterizationConfig QuickConfig() {
  auto config = campaign::CharacterizationPreset("characterization_quick");
  EXPECT_TRUE(config.ok());
  return *config;
}

/// The monolithic in-memory evaluation every campaign must reproduce.
const std::vector<CharacterizationUnitResult>& DirectQuickUnits() {
  static const std::vector<CharacterizationUnitResult> units = [] {
    const CharacterizationConfig config = QuickConfig();
    std::vector<CharacterizationUnitResult> out;
    for (uint64_t id = 0; id < config.unit_count(); ++id) {
      auto unit = core::EvaluateCharacterizationUnit(config, id);
      EXPECT_TRUE(unit.ok()) << unit.status().ToString();
      out.push_back(*unit);
    }
    return out;
  }();
  return units;
}

/// Runs shard i of paths.size() into paths[i] at `threads`.
void RunShards(const CharacterizationConfig& config,
               const std::vector<std::string>& paths, int threads) {
  for (size_t i = 0; i < paths.size(); ++i) {
    std::remove(paths[i].c_str());
    campaign::CharacterizationCampaignOptions opt;
    opt.config = config;
    opt.shard = {static_cast<uint32_t>(i),
                 static_cast<uint32_t>(paths.size())};
    opt.store_path = paths[i];
    opt.threads = threads;
    auto stats = campaign::RunCharacterizationCampaign(opt);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
}

// ------------------------------------------------------------------ codec --

TEST(CharacterizationCodec, SuiteRecordRoundTrips) {
  const CharacterizationConfig config = QuickConfig();
  const std::string encoded =
      campaign::EncodeCharacterizationSuiteRecord(config);
  auto decoded = campaign::DecodeCharacterizationSuiteRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->temperatures_c, config.temperatures_c);
  EXPECT_EQ(decoded->supplies, config.supplies);
  EXPECT_EQ(decoded->vtests, config.vtests);
  EXPECT_EQ(decoded->trials, config.trials);
  EXPECT_EQ(decoded->seed, config.seed);
  EXPECT_EQ(decoded->variation.load_resistance_spread,
            config.variation.load_resistance_spread);
  EXPECT_EQ(decoded->variation.wire_cap_spread,
            config.variation.wire_cap_spread);
  EXPECT_EQ(decoded->variation.is_spread, config.variation.is_spread);
  EXPECT_EQ(decoded->variation.beta_spread,
            config.variation.beta_spread);
  EXPECT_EQ(decoded->excursion_levels, config.excursion_levels);
  EXPECT_EQ(decoded->response_window, config.response_window);
  EXPECT_EQ(decoded->response_load_cap, config.response_load_cap);
  EXPECT_EQ(decoded->load_gates, config.load_gates);
  EXPECT_EQ(decoded->load_pipe, config.load_pipe);
  EXPECT_EQ(decoded->probe_max, config.probe_max);
  EXPECT_EQ(decoded->probe_step, config.probe_step);
  EXPECT_EQ(decoded->hysteresis_step, config.hysteresis_step);
  // The round-tripped config hashes to the same fingerprint: the merge
  // header cross-check relies on this.
  EXPECT_EQ(core::CharacterizationFingerprint(*decoded),
            core::CharacterizationFingerprint(config));
  // Same config, same bytes: the merge divergence check relies on this.
  EXPECT_EQ(campaign::EncodeCharacterizationSuiteRecord(*decoded),
            encoded);
}

TEST(CharacterizationCodec, UnitRecordRoundTrips) {
  CharacterizationUnitResult unit;
  unit.corner = 5;
  unit.die = 2;
  unit.v1_static_excursion = 0.62;
  unit.v2_static_excursion = 0.22;
  unit.v2_clean_drop = 0.013;
  unit.v2_dynamic_threshold = 0.2967;
  unit.trip_up = 3.552;
  unit.trip_down = 3.544;
  unit.vfb_pass = 3.1;
  unit.vfb_fail = 2.9;
  unit.hysteresis_found = true;
  unit.load_clean_flagged = false;
  unit.load_pipe_flagged = true;
  unit.load_clean_vout = 3.28;
  unit.load_pipe_vout = 2.97;
  unit.measure_failures = 0b10010;
  const std::string encoded =
      campaign::EncodeCharacterizationUnitRecord(42, unit);
  auto decoded = campaign::DecodeCharacterizationUnitRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->unit_id, 42u);
  EXPECT_TRUE(decoded->unit == unit);
}

TEST(CharacterizationCodec, RejectsTruncationAndTrailingBytes) {
  const std::string encoded =
      campaign::EncodeCharacterizationUnitRecord(7, {});
  EXPECT_FALSE(campaign::DecodeCharacterizationUnitRecord(
                   encoded.substr(0, encoded.size() - 1))
                   .ok());
  EXPECT_FALSE(campaign::DecodeCharacterizationUnitRecord(encoded + "x").ok());
  EXPECT_FALSE(campaign::DecodeCharacterizationUnitRecord("\x0ajunk").ok());
  // Each decoder takes its own record type only.
  EXPECT_FALSE(campaign::DecodeCharacterizationSuiteRecord(encoded).ok());
}

// ------------------------------------------------------ sampling statistics --

TEST(CharacterizationStatistics, SampledParameterMomentsMatchModel) {
  // Each variation parameter multiplies its nominal by 1 + U(-s, +s):
  // empirical mean multiplier must sit at 1.0 and the standard deviation
  // at s/sqrt(3) (the uniform distribution's second moment) over a large
  // draw count. Catches a mis-wired spread or a distribution swap.
  cml::CmlTechnology nominal;
  cml::VariationModel model;
  model.beta_spread = 0.08;  // enable the conditional fourth draw
  util::Rng rng(0x5EED5u);
  const int kDraws = 10000;

  struct Moments {
    double sum = 0.0, sumsq = 0.0;
    void Add(double x) { sum += x; sumsq += x * x; }
    double mean(int n) const { return sum / n; }
    double stddev(int n) const {
      const double m = mean(n);
      return std::sqrt(sumsq / n - m * m);
    }
  };
  Moments swing, wire_cap, is, bf;
  for (int i = 0; i < kDraws; ++i) {
    const cml::CmlTechnology t =
        cml::SampleTechnology(nominal, model, rng);
    swing.Add(t.swing / nominal.swing);
    wire_cap.Add(t.wire_cap / nominal.wire_cap);
    is.Add(t.npn.is / nominal.npn.is);
    bf.Add(t.npn.bf / nominal.npn.bf);
  }

  const double inv_sqrt3 = 1.0 / std::sqrt(3.0);
  struct Expectation {
    const Moments* m;
    double spread;
    const char* name;
  };
  for (const Expectation& e :
       {Expectation{&swing, model.load_resistance_spread, "swing"},
        Expectation{&wire_cap, model.wire_cap_spread, "wire_cap"},
        Expectation{&is, model.is_spread, "is"},
        Expectation{&bf, model.beta_spread, "bf"}}) {
    // Mean: standard error is s/sqrt(3*kDraws) ~ s/173; allow 5 of them.
    EXPECT_NEAR(e.m->mean(kDraws), 1.0, 5.0 * e.spread * inv_sqrt3 / 100.0)
        << e.name;
    // Spread: 5% relative comfortably covers the ~0.7% sampling error.
    EXPECT_NEAR(e.m->stddev(kDraws), e.spread * inv_sqrt3,
                0.05 * e.spread * inv_sqrt3)
        << e.name;
  }
}

TEST(CharacterizationStatistics, ZeroBetaSpreadKeepsLegacyStream) {
  // beta_spread = 0 must not consume a draw: the stream after sampling
  // matches a manual three-draw replay, so legacy seeded experiments keep
  // their exact Monte-Carlo sequence.
  cml::CmlTechnology nominal;
  cml::VariationModel model;  // beta_spread defaults to 0
  util::Rng rng_a(99), rng_b(99);
  const cml::CmlTechnology t = cml::SampleTechnology(nominal, model, rng_a);
  EXPECT_EQ(t.npn.bf, nominal.npn.bf);
  for (int i = 0; i < 3; ++i) rng_b.NextDouble(-1.0, 1.0);
  EXPECT_EQ(rng_a.NextDouble(0.0, 1.0), rng_b.NextDouble(0.0, 1.0));
}

// ------------------------------------------------------------- campaign --

TEST(CharacterizationCampaign, MergedReportJsonMatchesMonolithicAssembly) {
  // The byte-identity seam itself: the report assembled from merged shard
  // units serializes identically to one assembled from the direct run.
  const CharacterizationConfig config = QuickConfig();
  const std::vector<std::string> paths = {TempPath("r0.campaign"),
                                          TempPath("r1.campaign")};
  RunShards(config, paths, 2);
  auto merged = campaign::MergeCharacterizationStores(paths);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->units.size(), DirectQuickUnits().size());
  for (size_t i = 0; i < merged->units.size(); ++i) {
    EXPECT_TRUE(merged->units[i] == DirectQuickUnits()[i]) << "unit " << i;
  }

  report::Report from_merge(core::kCharacterizationExperiment,
                            core::kCharacterizationPaperRef,
                            core::kCharacterizationSummary);
  core::FillCharacterizationReport(merged->config, merged->units, from_merge);
  report::Report from_direct(core::kCharacterizationExperiment,
                             core::kCharacterizationPaperRef,
                             core::kCharacterizationSummary);
  core::FillCharacterizationReport(config, DirectQuickUnits(), from_direct);
  EXPECT_EQ(from_merge.ToJson().Dump(), from_direct.ToJson().Dump());

  auto stores = campaign::MergeStores(paths);
  ASSERT_TRUE(stores.ok());
  auto manifest = campaign::BuildCampaignManifest(*stores);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->experiment(), "characterization_campaign_manifest");
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(CharacterizationCampaign, FingerprintPerturbationTripsTheGolden) {
  // The report embeds the configuration fingerprint as an Exact text
  // scalar, so drifting the variation seed or the vtest grid cannot slip
  // past golden/characterization.json even if every measured voltage
  // happens to stay inside its tolerance. (Verified once against the real
  // golden: flipping the fingerprint makes golden_check report exactly one
  // DRIFT mismatch on 'characterization_fingerprint'.)
  const CharacterizationConfig config = QuickConfig();
  const uint64_t base = core::CharacterizationFingerprint(config);

  CharacterizationConfig seeded = config;
  seeded.seed ^= 1;
  EXPECT_NE(core::CharacterizationFingerprint(seeded), base);

  CharacterizationConfig regrid = config;
  regrid.vtests.push_back(3.9);
  EXPECT_NE(core::CharacterizationFingerprint(regrid), base);

  // And the fingerprint difference reaches the serialized report: same
  // units, perturbed-seed config -> different JSON bytes.
  report::Report a(core::kCharacterizationExperiment,
                   core::kCharacterizationPaperRef,
                   core::kCharacterizationSummary);
  core::FillCharacterizationReport(config, DirectQuickUnits(), a);
  report::Report b(core::kCharacterizationExperiment,
                   core::kCharacterizationPaperRef,
                   core::kCharacterizationSummary);
  core::FillCharacterizationReport(seeded, DirectQuickUnits(), b);
  EXPECT_NE(a.ToJson().Dump(), b.ToJson().Dump());
}

TEST(CharacterizationCampaign, PresetValidation) {
  EXPECT_FALSE(campaign::CharacterizationPreset("characterization_nope").ok());
  auto full = campaign::CharacterizationPreset("characterization");
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full->unit_count(), 0u);
  // Both presets carry the paper's nominal detection points on the yield
  // surface, and the full grid must include the nominal corner so the
  // report's *_nominal anchors resolve.
  for (const char* name : {"characterization", "characterization_quick"}) {
    auto plan = campaign::PlanForPreset(name);
    ASSERT_TRUE(plan.ok()) << name;
    EXPECT_EQ((*plan)->payload().name, "characterization");
    auto c = campaign::CharacterizationPreset(name);
    ASSERT_TRUE(c.ok());
    EXPECT_NE(std::find(c->excursion_levels.begin(),
                        c->excursion_levels.end(), 0.35),
              c->excursion_levels.end())
        << name;
    EXPECT_NE(std::find(c->excursion_levels.begin(),
                        c->excursion_levels.end(), 0.57),
              c->excursion_levels.end())
        << name;
  }
}

// ------------------------------------------------------------ convergence --

// -40 C, 3.0 V supply, vtest 3.6 V, die 1: both load-sharing vtest ramps
// stall at one 50 mV step ("stalled at alpha=1.00") unless the sweep
// approaches the point in halved steps from the last converged one.
TEST(CharacterizationConvergence, LoadSharingRampHalvesThroughAStall) {
  auto config = campaign::CharacterizationPreset("characterization");
  ASSERT_TRUE(config.ok());
  const uint64_t halvings_before =
      util::telemetry::Capture().Value("sim.dc.sweep_halvings");
  auto unit = core::EvaluateCharacterizationUnit(*config, 1);
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  const core::CharacterizationCorner corner = core::CornerAt(*config, 0);
  EXPECT_EQ(corner.temperature_c, -40.0);
  EXPECT_EQ(corner.supply, 3.0);
  EXPECT_EQ(corner.vtest, 3.6);
  EXPECT_EQ(unit->die, 1u);
  EXPECT_EQ(unit->measure_failures, 0u);
  EXPECT_GT(util::telemetry::Capture().Value("sim.dc.sweep_halvings"),
            halvings_before);
}

// The variant-2 static probe at -40 C, 3.3 V supply, vtest 3.7 V on the
// nominal die (unit 12). A singularity test relative to the largest
// matrix entry once refused a 4e-8 pivot here.
TEST(CharacterizationConvergence, Variant2ProbeConvergesAtColdNominalCorner) {
  auto config = campaign::CharacterizationPreset("characterization");
  ASSERT_TRUE(config.ok());
  const core::CharacterizationCorner corner = core::CornerAt(*config, 12 / 3);
  ASSERT_EQ(corner.temperature_c, -40.0);
  ASSERT_EQ(corner.supply, 3.3);
  ASSERT_EQ(corner.vtest, 3.7);
  cml::CmlTechnology tech;
  tech.vgnd = corner.supply;
  core::DetectorOptions options;
  options.npn = tech.npn;
  options.vtest_test_mode = corner.vtest;
  auto probe = core::MeasureDetectableExcursion(
      2, {tech, corner.temperature_c + 273.15}, options, corner.vtest,
      config->probe_max, config->probe_step);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_NEAR(probe->threshold, 0.34, 0.05);
}

}  // namespace
}  // namespace cmldft
