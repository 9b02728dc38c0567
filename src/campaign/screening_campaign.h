// The defect-screening payload: the §6 defect universe of the
// instrumented buffer chain (core/screening.h) as a campaign.
//
// A unit is one defect — its index in the stable enumeration order of
// core::ScreeningUniverse. The singleton record is the fault-free
// reference measurement (codec.h), simulated by every shard: it holds
// measurements, not the configuration, so the fingerprint
// (CampaignFingerprint over the options and the whole universe) is what
// pins a store to its configuration, and the byte-equal reference on
// resume is what catches an engine change.
#pragma once

#include <memory>
#include <string_view>

#include "campaign/payload.h"
#include "core/screening.h"
#include "util/status.h"

namespace cmldft::campaign {

extern const Payload kScreeningPayload;

/// Named ScreeningOptions presets:
///   "coverage_comparison" — exactly the bench/coverage_comparison.cc
///       configuration, so a merged campaign reproduces its golden.
///   "quick" — a small 2-stage universe for CI smoke and local iteration.
util::StatusOr<core::ScreeningOptions> ScreeningPreset(std::string_view name);

/// The plan of a screening configuration (enumerates the universe).
util::StatusOr<std::unique_ptr<const PayloadPlan>> MakeScreeningPlan(
    const core::ScreeningOptions& options);

/// The monolithic ScreeningReport of merged screening stores.
util::StatusOr<core::ScreeningReport> DecodeScreeningCampaign(
    const MergedStores& merged);

}  // namespace cmldft::campaign
