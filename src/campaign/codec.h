// Binary serialization of screening results for the `.campaign` store.
//
// Records are self-describing payloads (first byte = record type) framed
// by the store layer with a length prefix and CRC-32. The encoding is
// explicit little-endian with IEEE-754 bit patterns for doubles, so a
// value round-trips *bit-identically*: the merge stage can rebuild a
// ScreeningReport byte-for-byte equal to one produced by a monolithic
// in-memory run — the campaign runtime's headline invariant.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/screening.h"
#include "util/status.h"

namespace cmldft::campaign {

enum class RecordType : uint8_t {
  /// Fault-free reference measurements (one per store, written first).
  kReference = 1,
  /// One completed defect outcome, keyed by its universe unit id.
  kOutcome = 2,
  /// Pattern-coverage sweep suite description (pattern_campaign.h; one per
  /// store, written first). All `.campaign` record types share this one
  /// enum, so the payload registry (payload.h) can tell any record's
  /// payload from its first byte.
  kPatternSuite = 3,
  /// One completed pattern-coverage sweep unit (pattern_campaign.h).
  kPatternUnit = 4,
  /// Characterization sweep suite description (characterize_campaign.h;
  /// one per store, written first).
  kCharacterizationSuite = 5,
  /// One completed characterization unit (characterize_campaign.h).
  kCharacterizationUnit = 6,
};

/// The name of the payload (payload.h) a record type belongs to, empty for
/// an unknown type. Needs no payload descriptor, so the record gate can
/// name another payload's records without linking every payload.
std::string_view PayloadNameOf(RecordType type);

struct OutcomeRecord {
  uint64_t unit_id = 0;
  core::DefectOutcome outcome;
};

std::string EncodeReferenceRecord(const core::ScreeningReport& reference);
std::string EncodeOutcomeRecord(uint64_t unit_id,
                                const core::DefectOutcome& outcome);

/// The decoders reject truncated payloads, trailing garbage and records of
/// any other type. The reference decodes into a report's reference fields,
/// with no outcomes.
util::StatusOr<core::ScreeningReport> DecodeReferenceRecord(
    std::string_view payload);
util::StatusOr<OutcomeRecord> DecodeOutcomeRecord(std::string_view payload);

/// Stable digest of *what is being screened*: every ScreeningOptions field
/// that affects classification (never `threads` — execution layout must
/// not invalidate a store) plus the full enumerated defect universe in
/// execution order. Stores record it in their header; resume and merge
/// refuse a store whose fingerprint does not match the current plan.
uint64_t CampaignFingerprint(const core::ScreeningOptions& options,
                             const std::vector<defects::Defect>& universe);

}  // namespace cmldft::campaign
