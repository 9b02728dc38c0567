// The screening records of the `.campaign` store, and the record
// envelope every payload's records share.
//
// A record's envelope is its type byte (it is self-describing) and, for a
// unit record, its unit id; then come its fields in the one byte format
// of campaign/bytes.h. The store layer frames it with a length and CRC-32.
// Each record lists its fields once, in one field function that both its
// encoder and its decoder walk inside the envelope. Doubles keep
// their IEEE-754 bits, so a value round-trips *bit-identically*: the
// merge stage can rebuild a ScreeningReport byte-for-byte equal to one
// produced by a monolithic in-memory run — the campaign runtime's
// headline invariant.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/bytes.h"
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

/// A record of `type`: its type byte, then what `fields(writer)` writes.
template <typename Fields>
std::string EncodeRecord(RecordType type, const Fields& fields) {
  ByteWriter w;
  w.Enum(type);
  fields(w);
  return w.Take();
}

/// Read a record of `type` by `fields(reader)`. Refuses a record of any
/// other type before reading a field, and a truncated record or trailing
/// bytes after it; `what` names the record in the error.
template <typename Fields>
util::Status DecodeRecord(std::string_view payload, RecordType type,
                          std::string_view what, const Fields& fields) {
  ByteReader r(payload);
  RecordType got{};
  r.Enum(got);
  if (got != type) {
    return util::Status::ParseError("not a " + std::string(what));
  }
  fields(r);
  return r.Finish(what);
}

/// A unit record: the record envelope with the unit's id (u64) first.
template <typename Fields>
std::string EncodeUnitRecord(RecordType type, uint64_t unit_id,
                             const Fields& fields) {
  return EncodeRecord(type, [&](ByteWriter& w) {
    w.U64(unit_id);
    fields(w);
  });
}

template <typename Fields>
util::Status DecodeUnitRecord(std::string_view payload, RecordType type,
                              std::string_view what, uint64_t& unit_id,
                              const Fields& fields) {
  return DecodeRecord(payload, type, what, [&](ByteReader& r) {
    r.U64(unit_id);
    fields(r);
  });
}

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
