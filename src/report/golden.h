// Tolerance-aware diffing of a regenerated bench report against its
// committed golden snapshot. Library form so tools/golden_check stays a
// thin main() and the comparison rules themselves are unit-tested.
#pragma once

#include <string>
#include <vector>

#include "report/json.h"

namespace cmldft::report {

struct GoldenDiff {
  std::vector<std::string> mismatches;  ///< one human-readable line each
  /// Non-failing observations worth surfacing (e.g. a known-benign
  /// provenance flavour); printed by Summary() but never affect ok().
  std::vector<std::string> notes;
  int values_compared = 0;
  bool ok() const { return mismatches.empty(); }
  std::string Summary() const;
};

/// Compare a freshly generated report (`actual`) against the committed
/// snapshot (`golden`). The golden file is authoritative for structure
/// and tolerances: every golden scalar/table/column/row must be present
/// and within its declared tolerance class, and the actual report must
/// not contain scalars or tables the golden does not know about (silent
/// schema growth is drift too — regenerate the snapshot intentionally).
GoldenDiff CompareReports(const Json& actual, const Json& golden);

/// Structural comparison for google-benchmark JSON output: the sorted
/// multiset of benchmark names must match golden's "benchmarks" name
/// list exactly. Timings are machine-dependent and never compared.
GoldenDiff CompareGbenchStructure(const Json& actual, const Json& golden);

/// Tolerant performance comparison for google-benchmark JSON output,
/// used by the CI benchmark-regression gate (see docs/performance.md
/// "Benchmark baselines"). For every baseline benchmark whose family
/// (the name up to the first '/') is listed in `families`, the median
/// cpu_time of the actual run's repetitions of that row may not exceed
/// baseline by more than `tolerance` (0.20 = +20%). Getting *faster* is never drift. Also enforces the
/// provenance contract both reports must share before timings are
/// comparable at all: `cmldft_build_type` "Release", `cmldft_assertions`
/// "disabled", and a present, *consistent* google-benchmark
/// `library_build_type` — the library tags its own build flavour, and a
/// debug-harness run measured against a release-harness baseline (or a
/// baseline missing the tag entirely) is a provenance mismatch, not a
/// perf signal.
GoldenDiff CompareGbenchPerf(const Json& actual, const Json& baseline,
                             double tolerance,
                             const std::vector<std::string>& families);

/// Structural comparison for "cmldft-telemetry-v1" snapshots: the metric
/// name set, each metric's kind, and each histogram's bucket bounds must
/// match the golden exactly. Values (counts, seconds, buckets) are run-
/// dependent and never compared — this pins the *instrumentation schema*,
/// catching renamed, dropped, or re-typed metrics.
GoldenDiff CompareTelemetrySchema(const Json& actual, const Json& golden);

}  // namespace cmldft::report
