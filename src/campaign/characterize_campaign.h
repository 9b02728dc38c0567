// The characterization payload: the off-corner detector thresholds
// (core/characterize.h) as a campaign — the third payload on the durable
// machinery, after defect screening and pattern coverage.
//
// The universe is (corner × die): temperature × supply × vtest corners,
// each evaluating the nominal die plus Monte-Carlo process draws. A unit,
// `id = corner_id * (trials + 1) + die_index`, is an independent pure
// function of (config, unit_id). The singleton record is the suite — the
// full configuration — so merge needs no side-channel preset, and the
// header fingerprint (core::CharacterizationFingerprint) cross-checks it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/codec.h"
#include "campaign/merge.h"
#include "campaign/payload.h"
#include "campaign/runner.h"
#include "core/characterize.h"
#include "util/status.h"

namespace cmldft::campaign {

extern const Payload kCharacterizationPayload;

// ---- Record codec (framing and CRC belong to store.h) ----

std::string EncodeCharacterizationSuiteRecord(
    const core::CharacterizationConfig& config);
std::string EncodeCharacterizationUnitRecord(
    uint64_t unit_id, const core::CharacterizationUnitResult& unit);

struct CharacterizationUnitRecord {
  uint64_t unit_id = 0;
  core::CharacterizationUnitResult unit;
};

/// The decoders reject truncated payloads, trailing garbage and records
/// of any other type.
util::StatusOr<core::CharacterizationConfig> DecodeCharacterizationSuiteRecord(
    std::string_view payload);
util::StatusOr<CharacterizationUnitRecord> DecodeCharacterizationUnitRecord(
    std::string_view payload);

// ---- Presets and plans ----

/// Named presets shared by tools/campaign_run and the bench:
///   "characterization" — exactly the bench/characterization.cc grid, so a
///       merged campaign reproduces its golden byte-for-byte.
///   "characterization_quick" — a 2-corner grid for tests/CI smoke.
util::StatusOr<core::CharacterizationConfig> CharacterizationPreset(
    std::string_view name);

/// The plan of a configuration; refuses an empty or invalid grid.
util::StatusOr<std::unique_ptr<const PayloadPlan>> MakeCharacterizationPlan(
    const core::CharacterizationConfig& config);

// ---- Run and merge ----

struct CharacterizationCampaignOptions : RunOptions {
  core::CharacterizationConfig config;
  /// Worker threads for unit evaluation (0 = auto, see util/parallel.h).
  int threads = 0;
};

struct CharacterizationMergeResult {
  /// The configuration recovered from the suite record.
  core::CharacterizationConfig config;
  /// Unit results in universe order — bit-identical to a monolithic run.
  std::vector<core::CharacterizationUnitResult> units;
};

/// The typed result of merged characterization stores.
util::StatusOr<CharacterizationMergeResult> DecodeCharacterizationCampaign(
    const MergedStores& merged);

// The two entry points below are defined inline: bench/characterization
// links this payload's file for its preset alone, and must not link the
// run loop and merge, whose campaign.* metrics its telemetry golden
// (golden/characterization.telemetry.json) does not list.

/// RunCampaign over MakeCharacterizationPlan(options.config).
inline util::StatusOr<CampaignRunStats> RunCharacterizationCampaign(
    const CharacterizationCampaignOptions& options) {
  auto plan = MakeCharacterizationPlan(options.config);
  if (!plan.ok()) return plan.status();
  return RunCampaign(**plan, options.threads, options);
}

/// MergeStores + DecodeCharacterizationCampaign.
inline util::StatusOr<CharacterizationMergeResult> MergeCharacterizationStores(
    const std::vector<std::string>& paths) {
  auto merged = MergeStores(paths);
  if (!merged.ok()) return merged.status();
  return DecodeCharacterizationCampaign(*merged);
}

}  // namespace cmldft::campaign
