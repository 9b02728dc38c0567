// The paper's central coverage claim, quantified: enumerate the full
// defect universe (pipes, shorts, opens, resistor defects, bridges) of an
// instrumented buffer chain; classify every defect by what catches it —
// conventional logic/stuck-at testing at the primary output, delay
// testing, or ONLY the built-in amplitude detectors. "Classical stuck-at
// faults are far from providing sufficient defect coverage."
//
// Report assembly is shared with `campaign_merge --coverage-report`
// (bench/paper_bench.h): a sharded, kill-resumed campaign over the same
// options must reproduce this bench's JSON byte-for-byte.
#include <cstdio>

#include "bench/paper_bench.h"
#include "campaign/runner.h"
#include "core/screening.h"
#include "report/report.h"

using namespace cmldft;

int main(int argc, char** argv) {
  report::BenchIo io(argc, argv);
  report::Report& rep = io.Begin(bench::kCoverageComparisonExperiment,
                                 bench::kCoverageComparisonPaperRef,
                                 bench::kCoverageComparisonSummary);

  // The options are a named campaign preset so tools/campaign_run screens
  // the exact same universe.
  auto opt = campaign::ScreeningPreset("coverage_comparison");
  if (!opt.ok()) {
    std::fprintf(stderr, "%s\n", opt.status().ToString().c_str());
    return 1;
  }
  auto report = core::ScreenBufferChain(*opt);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("reference: primary swing %.3f V, delay %.0f ps, detector vout "
              "floor %.3f V\n\n",
              report->nominal_swing, report->reference_delay * 1e12,
              report->reference_detector_vout);

  const bench::CoverageComparisonSummary sum =
      bench::FillCoverageComparisonReport(*report, *opt, rep);
  const core::ScreeningReport& chip = sum.chip;
  std::printf("%s\n", sum.per_defect->ToText().c_str());

  std::printf("defects total           : %d\n", report->total());
  std::printf("  logic-visible         : %d\n",
              chip.CountClass(core::FaultClass::kLogicVisible));
  std::printf("  delay-visible         : %d\n",
              chip.CountClass(core::FaultClass::kDelayVisible));
  std::printf("  iddq-visible          : %d\n",
              chip.CountClass(core::FaultClass::kIddqVisible));
  std::printf("  catastrophic          : %d (no bias point)\n",
              chip.CountClass(core::FaultClass::kCatastrophic));
  std::printf("  AMPLITUDE-ONLY        : %d  <- invisible to conventional tests\n",
              chip.CountClass(core::FaultClass::kAmplitudeOnly));
  std::printf("  no-effect             : %d\n",
              chip.CountClass(core::FaultClass::kNoEffect));
  std::printf("  unresolved            : %d (simulation failed; never counted "
              "as coverage)\n",
              chip.CountClass(core::FaultClass::kUnresolved));
  for (const auto& o : chip.outcomes) {
    if (o.Classify() == core::FaultClass::kUnresolved) {
      std::printf("    %s: %s\n", o.defect.Id().c_str(), o.error.c_str());
    }
  }

  std::printf("\nblock-scale Iddq (%d gates, 25%% resolution):\n",
              opt->chain_length);
  std::printf("  coverage, conventional (stuck-at+delay+Iddq+gross): %.1f%%\n",
              report->ConventionalCoverage() * 100);
  std::printf("  coverage, + built-in amplitude detectors          : %.1f%%\n",
              report->CombinedCoverage() * 100);
  std::printf("chip-scale Iddq (defect current diluted by 10,000 gates):\n");
  std::printf("  conventional coverage                             : %.1f%%\n",
              chip.ConventionalCoverage() * 100);
  std::printf("  + built-in amplitude detectors                    : %.1f%%  "
              "(+%.1f points)\n",
              chip.CombinedCoverage() * 100,
              (chip.CombinedCoverage() - chip.ConventionalCoverage()) * 100);
  std::printf("  amplitude-only escapes recovered by the detectors : %d\n",
              chip.CountClass(core::FaultClass::kAmplitudeOnly));

  std::printf("\nfault localization (detector site vs defect site): %d/%d "
              "correct (%.0f%%)\n",
              sum.localization.correct, sum.localization.localizable,
              sum.localization.Accuracy() * 100);
  std::printf(
      "\npaper: simulations show abnormal gate output excursions caused by a\n"
      "defect are common with CML, and these detectors cover classes of\n"
      "faults that cannot be tested by stuck-at methods only.\n");
  return io.Finish();
}
