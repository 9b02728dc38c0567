// Golden-snapshot regression driver for the paper-reproduction benches.
//
//   golden_check <actual.json> <golden.json>
//       Diff a freshly generated bench report against the committed
//       snapshot, honouring the tolerance class each column/scalar
//       declares (exact for counts and verdicts, abs/rel for analog
//       measurements, informational values skipped).
//
//   golden_check --gbench <actual.json> <golden.json>
//       Structural check for google-benchmark output: the benchmark
//       name list must match; timings are never compared.
//
//   golden_check --bench-perf <actual.json> <baseline.json>
//       Tolerant performance gate for google-benchmark output (the CI
//       benchmark-regression step): gated families fail when cpu_time
//       regresses more than the tolerance vs the committed BENCH_perf
//       baseline, and both reports must carry matching release
//       provenance (cmldft_build_type/cmldft_assertions AND a present,
//       consistent google-benchmark library_build_type). Options:
//       --tolerance=0.20 (fraction) and --families=A,B (benchmark name
//       prefixes up to the first '/'); defaults gate
//       BM_TransientFastPath and BM_HierTransient at +20%.
//
//   golden_check --telemetry-schema <actual.json> <golden.json>
//       Structural check for "cmldft-telemetry-v1" snapshots: the metric
//       name set, kinds, and histogram bounds must match; counter values
//       and timings are run-dependent and never compared.
//
// Exit codes: 0 = within tolerance, 1 = drift (details on stdout),
// 2 = usage or I/O error. To intentionally refresh a snapshot, rerun the
// bench with --json pointing at golden/<bench>.json (or use the
// `regen_golden` build target) and review the diff in git.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "report/golden.h"
#include "report/json.h"

namespace {

enum class Mode { kReport, kGbench, kBenchPerf, kTelemetrySchema };

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--gbench|--telemetry-schema|--bench-perf "
      "[--tolerance=F] [--families=A,B]] <actual.json> <golden.json>\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using cmldft::report::GoldenDiff;
  Mode mode = Mode::kReport;
  double tolerance = 0.20;
  std::vector<std::string> families = {"BM_TransientFastPath",
                                       "BM_HierTransient"};
  int arg = 1;
  if (arg < argc && std::strcmp(argv[arg], "--gbench") == 0) {
    mode = Mode::kGbench;
    ++arg;
  } else if (arg < argc && std::strcmp(argv[arg], "--bench-perf") == 0) {
    mode = Mode::kBenchPerf;
    ++arg;
    while (arg < argc && std::strncmp(argv[arg], "--", 2) == 0) {
      if (std::strncmp(argv[arg], "--tolerance=", 12) == 0) {
        tolerance = std::atof(argv[arg] + 12);
        if (tolerance <= 0) return Usage(argv[0]);
      } else if (std::strncmp(argv[arg], "--families=", 11) == 0) {
        families.clear();
        std::string list = argv[arg] + 11;
        size_t start = 0;
        while (start <= list.size()) {
          size_t comma = list.find(',', start);
          if (comma == std::string::npos) comma = list.size();
          if (comma > start) families.push_back(list.substr(start, comma - start));
          start = comma + 1;
        }
        if (families.empty()) return Usage(argv[0]);
      } else {
        return Usage(argv[0]);
      }
      ++arg;
    }
  } else if (arg < argc && std::strcmp(argv[arg], "--telemetry-schema") == 0) {
    mode = Mode::kTelemetrySchema;
    ++arg;
  }
  if (argc - arg != 2) return Usage(argv[0]);
  const std::string actual_path = argv[arg];
  const std::string golden_path = argv[arg + 1];

  auto actual = cmldft::report::ReadJsonFile(actual_path);
  if (!actual.ok()) {
    std::fprintf(stderr, "%s\n", actual.status().ToString().c_str());
    return 2;
  }
  auto golden = cmldft::report::ReadJsonFile(golden_path);
  if (!golden.ok()) {
    std::fprintf(stderr, "%s\n", golden.status().ToString().c_str());
    std::fprintf(stderr,
                 "no golden snapshot — generate one with the bench's "
                 "--json flag (see docs/test-flow.md)\n");
    return 2;
  }

  GoldenDiff diff;
  switch (mode) {
    case Mode::kReport:
      diff = cmldft::report::CompareReports(*actual, *golden);
      break;
    case Mode::kGbench:
      diff = cmldft::report::CompareGbenchStructure(*actual, *golden);
      break;
    case Mode::kBenchPerf:
      diff = cmldft::report::CompareGbenchPerf(*actual, *golden, tolerance,
                                               families);
      break;
    case Mode::kTelemetrySchema:
      diff = cmldft::report::CompareTelemetrySchema(*actual, *golden);
      break;
  }
  std::printf("%s vs %s\n%s", actual_path.c_str(), golden_path.c_str(),
              diff.Summary().c_str());
  if (!diff.ok()) {
    std::printf(
        "\nIf this change is intentional, regenerate the snapshot "
        "(docs/test-flow.md#golden-regression) and commit the diff.\n");
  }
  return diff.ok() ? 0 : 1;
}
