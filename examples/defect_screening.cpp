// Example: screen a CML design's full defect universe and report which
// defects conventional (stuck-at / delay) testing misses — the paper's
// motivating experiment, packaged as a flow a test engineer would run.
//
//   $ ./examples/defect_screening
#include <cstdio>
#include <map>

#include "core/screening.h"
#include "report/report.h"

using namespace cmldft;

int main() {
  std::printf("Screening the defect universe of an instrumented CML buffer "
              "chain...\n\n");

  core::ScreeningOptions opt;
  opt.chain_length = 3;
  opt.sim_time = 50e-9;
  opt.detector.load_cap = 1e-12;
  opt.enumeration.pipe_values = {1e3, 4e3};  // one strong, one subtle pipe
  auto report = core::ScreenBufferChain(opt);
  if (!report.ok()) {
    std::fprintf(stderr, "screening failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  // Show the defects conventional testing would *miss*.
  const report::Tol info = report::Tol::Info();
  report::Table escapes("escapes",
                        {{"defect escaped by conventional test", info},
                         {"gate amplitude", info},
                         {"detector vout", info}});
  for (const auto& o : report->outcomes) {
    if (o.Classify() == core::FaultClass::kAmplitudeOnly) {
      escapes.NewRow()
          .Str(o.defect.Id())
          .Num("%.2f V", o.max_gate_amplitude)
          .Num("%.2f V", o.min_detector_vout);
    }
  }
  std::printf("%s\n", escapes.ToText().c_str());

  std::map<core::FaultClass, int> counts;
  for (const auto& o : report->outcomes) counts[o.Classify()]++;
  std::printf("universe: %d defects | logic %d | delay %d | amplitude-only %d "
              "| benign %d | catastrophic %d\n",
              report->total(), counts[core::FaultClass::kLogicVisible],
              counts[core::FaultClass::kDelayVisible],
              counts[core::FaultClass::kAmplitudeOnly],
              counts[core::FaultClass::kNoEffect],
              counts[core::FaultClass::kCatastrophic]);
  std::printf("coverage without detectors: %.1f%%   with detectors: %.1f%%\n",
              report->ConventionalCoverage() * 100,
              report->CombinedCoverage() * 100);
  return 0;
}
