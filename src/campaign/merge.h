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
// configurations.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
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
  /// Latched from the records' type; never null in a merge result.
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

/// Streaming incremental merge: fold record payloads one at a time, in any
/// order, as they arrive from workers — without waiting for campaign
/// completion. The campaign service feeds it every record it appends to
/// the store (and every record already there on restart) and reads a live
/// coverage estimate off it for the status API.
///
/// Idempotent by construction: a unit record delivered twice (a reclaimed
/// lease whose original worker also finished, a re-sent batch) is accepted
/// when bit-identical to the first delivery and refused otherwise — the
/// first record wins, the duplicate is only cross-checked, and
/// `units_done` never double-counts. The singleton record gets the same
/// treatment, which is the resume guard extended across hosts: two
/// workers running different engine builds cannot contribute to one
/// campaign.
///
/// The payload is latched from the first record; records of another
/// payload are refused. `LiveCoverage` is the payload's headline ratio
/// (payload.h, UnitRecordInfo) over the units folded so far; at completion
/// it equals the value the merged report derives from the same records.
class StreamingMerge {
 public:
  explicit StreamingMerge(uint64_t total_units);

  struct FoldResult {
    /// A unit not seen before was folded in.
    bool new_unit = false;
    /// First delivery of the singleton record.
    bool new_singleton = false;
    /// Bit-identical re-delivery of an already-folded record; ignored.
    bool duplicate = false;
    /// Set for unit records (valid when new_unit or duplicate).
    uint64_t unit_id = 0;
  };

  /// Fold one record payload (store framing already stripped). Refuses a
  /// foreign payload, an out-of-universe unit id, a unit whose coordinates
  /// contradict its id, and any duplicate that is not bit-identical to the
  /// first delivery.
  util::StatusOr<FoldResult> Fold(std::string_view payload);

  uint64_t total_units() const { return total_units_; }
  uint64_t units_done() const { return units_done_; }
  bool complete() const { return units_done_ == total_units_; }

  /// Payload headline ratio over the units folded so far (0 when none).
  double LiveCoverage() const;

 private:
  uint64_t total_units_;
  uint64_t units_done_ = 0;
  const Payload* payload_ = nullptr;
  std::string singleton_;
  /// Per-unit: 0 = unseen, 1 = seen (hash in unit_hash_).
  std::vector<uint8_t> seen_;
  std::vector<uint64_t> unit_hash_;
  uint64_t covered_ = 0;
  uint64_t coverable_ = 0;
};

}  // namespace cmldft::campaign
