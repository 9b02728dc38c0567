// Merge completed campaign shard stores into the campaign's final report.
//
//   campaign_merge [--manifest <out.json>] [--coverage-report <out.json>]
//                  [--preset NAME] <store.campaign> [more stores ...]
//
// Verifies that the stores belong to one campaign (same payload,
// fingerprint, universe, shard plan), that every universe unit is present
// exactly once with the coordinates its id implies (a truncated or
// unfinished shard is a hard error — results are recomputed from the unit
// records, never trusted from headers), and that all shards agree
// bit-for-bit on the singleton record (screening reference or suite).
//
// The payload is read off the stores' record types (campaign/payload.h):
// defect-screening stores merge into the coverage_comparison report,
// pattern-coverage stores into the pattern_coverage report, and
// characterization stores into the characterization report. The suite
// record inside a pattern or characterization store carries its own
// configuration, so --preset is screening-only.
//
//   --manifest         write the campaign manifest JSON (golden-checkable)
//   --coverage-report  write the bench report derived from the merged
//                      records; byte-identical to the monolithic bench run
//   --preset           screening preset the campaign ran (for the
//                      coverage report's thresholds; default
//                      coverage_comparison; ignored for other payloads)
//
// Exit codes: 0 = merged, 1 = merge refused (incomplete/corrupt/foreign
// stores) or write failure, 2 = usage error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench/paper_bench.h"
#include "campaign/characterize_campaign.h"
#include "campaign/manifest.h"
#include "campaign/merge.h"
#include "campaign/pattern_campaign.h"
#include "campaign/screening_campaign.h"
#include "report/json.h"
#include "report/report.h"
#include "testgen/pattern_sweep.h"

using namespace cmldft;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--manifest <out.json>] [--coverage-report "
               "<out.json>] [--preset NAME] <store.campaign> [more ...]\n",
               argv0);
  return 2;
}

util::StatusOr<report::Report> FillScreening(
    const campaign::MergedStores& merged, const std::string& preset) {
  auto opt = campaign::ScreeningPreset(preset);
  if (!opt.ok()) return opt.status();
  auto screening = campaign::DecodeScreeningCampaign(merged);
  if (!screening.ok()) return screening.status();
  report::Report rep(bench::kCoverageComparisonExperiment,
                     bench::kCoverageComparisonPaperRef,
                     bench::kCoverageComparisonSummary);
  bench::FillCoverageComparisonReport(*screening, *opt, rep);
  return rep;
}

util::StatusOr<report::Report> FillPattern(
    const campaign::MergedStores& merged, const std::string&) {
  auto sweep = campaign::DecodePatternCampaign(merged);
  if (!sweep.ok()) return sweep.status();
  report::Report rep(testgen::kPatternCoverageExperiment,
                     testgen::kPatternCoveragePaperRef,
                     testgen::kPatternCoverageSummary);
  testgen::FillPatternCoverageReport(sweep->sweep, sweep->units, rep);
  return rep;
}

util::StatusOr<report::Report> FillCharacterization(
    const campaign::MergedStores& merged, const std::string&) {
  auto result = campaign::DecodeCharacterizationCampaign(merged);
  if (!result.ok()) return result.status();
  report::Report rep(core::kCharacterizationExperiment,
                     core::kCharacterizationPaperRef,
                     core::kCharacterizationSummary);
  core::FillCharacterizationReport(result->config, result->units, rep);
  return rep;
}

/// Each payload's bench report, assembled from the merged records. The
/// screening report's assembly lives in bench/, outside the payload.
struct ReportFill {
  const campaign::Payload* payload;
  util::StatusOr<report::Report> (*fill)(const campaign::MergedStores&,
                                         const std::string& preset);
};
const ReportFill kReportFills[] = {
    {&campaign::kScreeningPayload, &FillScreening},
    {&campaign::kPatternPayload, &FillPattern},
    {&campaign::kCharacterizationPayload, &FillCharacterization},
};

int WriteReport(const std::string& path,
                const util::StatusOr<report::Report>& rep) {
  util::Status st =
      rep.ok() ? report::WriteJsonFile(path, rep->ToJson()) : rep.status();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  std::string coverage_path;
  std::string preset = "coverage_comparison";
  std::vector<std::string> stores;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--manifest") {
      manifest_path = next("--manifest");
    } else if (arg == "--coverage-report") {
      coverage_path = next("--coverage-report");
    } else if (arg == "--preset") {
      preset = next("--preset");
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg.c_str());
      return Usage(argv[0]);
    } else {
      stores.push_back(arg);
    }
  }
  if (stores.empty()) {
    std::fprintf(stderr, "%s: no campaign stores given\n", argv[0]);
    return Usage(argv[0]);
  }

  auto merged = campaign::MergeStores(stores);
  if (!merged.ok()) {
    std::fprintf(stderr, "merge failed: %s\n",
                 merged.status().ToString().c_str());
    return 1;
  }
  std::printf("merged %zu %s store(s): %llu units, fingerprint %016llx\n",
              stores.size(), std::string(merged->payload->name).c_str(),
              static_cast<unsigned long long>(merged->total_units),
              static_cast<unsigned long long>(merged->fingerprint));

  if (!manifest_path.empty() &&
      WriteReport(manifest_path, campaign::BuildCampaignManifest(*merged)) !=
          0) {
    return 1;
  }
  if (!coverage_path.empty()) {
    for (const ReportFill& row : kReportFills) {
      if (row.payload != merged->payload) continue;
      if (WriteReport(coverage_path, row.fill(*merged, preset)) != 0) return 1;
    }
  }
  return 0;
}
