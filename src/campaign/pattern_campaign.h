// The pattern-coverage payload: the §6.6 coverage-vs-pattern-count sweep
// (testgen/pattern_sweep.h) as a campaign.
//
// A unit is one (benchmark, pattern-count) cell,
// `id = benchmark_index * ladder_size + ladder_index`, an independent pure
// function of (config, unit_id). The singleton record is the suite — the
// full sweep configuration — so merge needs no side-channel preset: the
// store says what was swept, and the header fingerprint
// (testgen::SweepFingerprint) cross-checks it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/codec.h"
#include "campaign/payload.h"
#include "testgen/pattern_sweep.h"
#include "util/status.h"

namespace cmldft::campaign {

extern const Payload kPatternPayload;

// ---- Record codec (framing and CRC belong to store.h) ----

std::string EncodePatternSuiteRecord(const testgen::PatternSweepConfig& sweep);
std::string EncodePatternUnitRecord(uint64_t unit_id,
                                    const testgen::SweepUnitResult& unit);

struct PatternUnitRecord {
  uint64_t unit_id = 0;
  testgen::SweepUnitResult unit;
};

/// The decoders reject truncated payloads, trailing garbage and records
/// of any other type.
util::StatusOr<testgen::PatternSweepConfig> DecodePatternSuiteRecord(
    std::string_view payload);
util::StatusOr<PatternUnitRecord> DecodePatternUnitRecord(
    std::string_view payload);

// ---- Presets and plans ----

/// Named sweep presets shared by tools/campaign_run and the bench:
///   "pattern_coverage" — exactly the bench/pattern_coverage.cc sweep, so
///       a merged campaign reproduces its golden byte-for-byte.
///   "pattern_quick" — a 2-benchmark, 2-rung ladder for CI smoke.
util::StatusOr<testgen::PatternSweepConfig> PatternSweepPreset(
    std::string_view name);

/// The plan of a sweep configuration; refuses an empty or invalid sweep.
util::StatusOr<std::unique_ptr<const PayloadPlan>> MakePatternPlan(
    const testgen::PatternSweepConfig& sweep);

// ---- Merged result ----

struct PatternCampaignResult {
  /// The sweep configuration recovered from the suite record.
  testgen::PatternSweepConfig sweep;
  /// Unit results in universe order — bit-identical to a monolithic run.
  std::vector<testgen::SweepUnitResult> units;
};

/// The typed result of merged pattern stores.
util::StatusOr<PatternCampaignResult> DecodePatternCampaign(
    const MergedStores& merged);

}  // namespace cmldft::campaign
