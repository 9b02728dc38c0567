// Coverage-vs-pattern-count sweeps over generator-built sequential
// benchmarks — the §6.6 "how many random patterns does a sequential
// circuit need" question as a standard, golden-pinned report.
//
// The sweep universe is (benchmark × pattern-count) with the stable unit
// ordering unit_id = benchmark_index * ladder_size + ladder_index. Every
// unit is an independent, deterministic simulation (its own init sequence
// + LFSR stream from a fixed seed), so the same campaign machinery that
// shards defect screening applies unchanged: any subset of units computed
// anywhere merges back into the exact monolithic result
// (campaign/pattern_campaign.h). Unit results are stored as integers
// only; the report derives ratios at assembly time, making monolithic-
// vs-merged byte-identity structural rather than numerical luck.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "digital/gate_netlist.h"
#include "report/report.h"
#include "testgen/sequential_engine.h"
#include "util/status.h"

namespace cmldft::testgen {

struct PatternSweepConfig {
  /// Benchmark names resolved by MakeSweepBenchmark (stable order).
  std::vector<std::string> benchmarks;
  /// Pattern-count ladder applied to every benchmark (ascending).
  std::vector<int> pattern_counts;
  uint32_t seed = 0xACE1u;
  /// 0 = per-netlist auto (see InitSequenceOptions::max_cycles).
  int init_max_cycles = 0;

  uint64_t unit_count() const {
    return static_cast<uint64_t>(benchmarks.size()) * pattern_counts.size();
  }
};

/// Resolve a sweep benchmark name: "counterN", "shiftN", "johnsonN",
/// "fsmN" (N = states, power of two), "scramblerN". Unknown families or
/// out-of-range sizes are InvalidArgument.
util::StatusOr<digital::GateNetlist> MakeSweepBenchmark(std::string_view name);

/// One completed sweep unit. Integer-only so a store round-trip is
/// trivially bit-identical; ratios are derived at report time.
struct SweepUnitResult {
  uint32_t benchmark = 0;  ///< index into config.benchmarks
  uint32_t patterns = 0;   ///< pattern count applied (the ladder value)
  uint32_t toggled = 0;
  uint32_t togglable = 0;
  uint64_t transitions = 0;
  uint32_t init_cycles = 0;
  uint32_t residual_x = 0;
  uint32_t dffs = 0;

  bool operator==(const SweepUnitResult& o) const = default;
};

/// Run unit `unit_id` of the sweep from scratch. Pure function of
/// (config, unit_id) — the campaign determinism contract.
util::StatusOr<SweepUnitResult> EvaluateSweepUnit(
    const PatternSweepConfig& config, uint64_t unit_id);

/// Stable digest of *what is being swept*: benchmark names and structure
/// (gates, types, fanins), ladder, seed, and init budget. Pattern-coverage
/// stores record it so resume/merge refuse a foreign or drifted sweep.
uint64_t SweepFingerprint(const PatternSweepConfig& config);

// The pattern_coverage bench and `campaign_merge --coverage-report` must
// emit byte-identical JSON from the same unit results: one is a
// monolithic run, the other a merged sharded campaign, and the golden
// snapshot pins both. Report identity (and assembly, below) therefore
// lives here, once.
inline constexpr const char kPatternCoverageExperiment[] = "pattern_coverage";
inline constexpr const char kPatternCoveragePaperRef[] =
    "§6.6 / ref [13] (random-pattern testing of sequential CML circuits)";
inline constexpr const char kPatternCoverageSummary[] =
    "toggle coverage vs pseudorandom pattern count after deterministic "
    "initialization, across generated sequential benchmarks";

/// Assemble the pattern_coverage report from complete unit results in
/// universe order. Shared by the monolithic bench and campaign_merge —
/// the byte-identity seam (same pattern as FillCoverageComparisonReport).
void FillPatternCoverageReport(const PatternSweepConfig& config,
                               const std::vector<SweepUnitResult>& units,
                               report::Report& rep);

}  // namespace cmldft::testgen
