// Campaign manifest: the JSON face of a merged campaign, built on the
// report library so the golden-regression pipeline can pin it like any
// bench report. Every payload's manifest carries the fingerprint (Exact,
// so a silently different universe or configuration cannot masquerade as
// the golden campaign), the universe and shard plan, the payload's own
// tallies (payload.h, ManifestSpec; recomputed from the merged records —
// drift means results changed) and each store's contribution.
#pragma once

#include "campaign/merge.h"
#include "report/report.h"
#include "util/status.h"

namespace cmldft::campaign {

/// Build the manifest report for merged stores. Deterministic: the same
/// merged campaign yields byte-identical JSON.
util::StatusOr<report::Report> BuildCampaignManifest(
    const MergedStores& merged);

}  // namespace cmldft::campaign
