// Recombination: fold N shard stores of one campaign, whatever its
// payload (payload.h), back into the result of a monolithic,
// uninterrupted run.
//
// Merge trusts nothing a header *claims* about completeness: the result
// is rebuilt from the unit records actually present, and the merge fails
// loudly if any universe unit is missing (a truncated or unfinished shard
// can therefore never silently inflate coverage) or present twice
// (overlapping/duplicated stores). Nothing is sized by a header's
// universe before the records cover it. The singleton record (screening
// reference, pattern/characterization suite) must agree bit-for-bit
// across shards — every shard re-derives it deterministically, so any
// divergence means the shards were produced by different engines or
// configurations. Every record of every store passes one
// StreamingMerge::Fold (store.h), the same gate resume and the scheduler
// apply; the merge adds only the checks that span stores.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "campaign/codec.h"
#include "campaign/payload.h"
#include "campaign/screening_campaign.h"
#include "core/screening.h"
#include "util/status.h"

namespace cmldft::campaign {

/// Shard stores merged into one campaign.
struct MergedStores {
  /// Named by the records' type; never null in a merge result.
  const Payload* payload = nullptr;
  /// The singleton record, byte-equal in every store that carries it.
  std::string singleton;
  /// Unit records in universe order: units[id] is unit id's record.
  std::vector<std::string> units;
  uint64_t fingerprint = 0;
  uint64_t total_units = 0;
  uint32_t shard_count = 0;
  /// (shard index, unit records contributed), in input order.
  std::vector<std::pair<uint32_t, uint64_t>> shard_units;
};

/// Merge one or more shard stores. Every store must carry the same
/// payload, fingerprint, universe size and shard count, and a byte-equal
/// singleton; together they must cover every unit id exactly once, each
/// unit record with the coordinates its id implies.
util::StatusOr<MergedStores> MergeStores(const std::vector<std::string>& paths);

struct MergeResult {
  /// Outcomes in universe order — bit-identical to a monolithic run.
  core::ScreeningReport report;
};

/// MergeStores + DecodeScreeningCampaign. Inline, so that a binary linking
/// the screening payload for its preset (bench/coverage_comparison) does
/// not link the merge and, through it, every payload.
inline util::StatusOr<MergeResult> MergeCampaignStores(
    const std::vector<std::string>& paths) {
  auto merged = MergeStores(paths);
  if (!merged.ok()) return merged.status();
  auto report = DecodeScreeningCampaign(*merged);
  if (!report.ok()) return report.status();
  return MergeResult{std::move(*report)};
}

}  // namespace cmldft::campaign
